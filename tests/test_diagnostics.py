"""Trajectory metrics, recorded runs, convergence sweeps, CSV round trips."""

import math
import pathlib

import numpy as np
import pytest

import isork.diagnostics as diag
from isork.diagnostics import (
    ConvergenceReport,
    Recorder,
    TrajectoryRecord,
    convergence_study,
    read_csv,
    run_recorded,
    write_csv,
)
from isork.integrator import NonConvergenceError, StepperConfig, solve_stage
from isork.quadlie import cayley, random_algebra_element
from isork.systems import RigidBody, ZeitlinSphere
from isork.tableau import builtin


class TestRecord:
    def test_initial_point_has_zero_drifts(self):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        r = Recorder(sys, mu0).record(mu0, [])
        assert r.step == 0 and r.t == 0.0
        assert r.energy_drift == 0.0
        assert r.spectral_drift == 0.0
        assert r.solver_iters_total == 0
        assert r.casimir_values == (sys.casimirs(mu0)[0],)

    def test_similarity_shows_no_spectral_drift(self):
        sys = RigidBody()
        mu0 = sys.initial_state(1)
        q = cayley(random_algebra_element(sys.context, 9))
        moved = q @ mu0 @ q.T
        r = Recorder(sys, mu0).record(moved, [], step=3, h=0.5)
        assert r.spectral_drift < 1e-13
        assert r.t == 1.5

    def test_recorder_matches_one_shot(self):
        # A Recorder reused along a trajectory gives what a fresh one
        # gives for each point: the cached initial data is all it keeps.
        sys = ZeitlinSphere(N=5)
        mu0 = sys.initial_state(2)
        st = solve_stage(mu0, 0.05, sys, StepperConfig())
        rec = Recorder(sys, mu0)
        rec.record(mu0, [])
        assert rec.record(st.mu_half, [st], step=1, h=0.05) == Recorder(sys, mu0).record(
            st.mu_half, [st], step=1, h=0.05
        )

    def test_eigensolver_failure_is_flagged_not_raised(self, monkeypatch):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        rec = Recorder(sys, mu0)  # caches spectrum0 before the patch

        def explode(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(diag, "spectrum", explode)
        r = rec.record(mu0, [], step=1, h=0.1)
        assert math.isnan(r.spectral_drift)
        assert r.energy_drift == 0.0


class TestRunRecorded:
    def test_validation(self):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        cfg = StepperConfig()
        with pytest.raises(ValueError, match="method"):
            run_recorded(sys, mu0, cfg, 0.01, 5, method="euler")
        with pytest.raises(ValueError):
            run_recorded(sys, mu0, cfg, 0.01, 0)
        with pytest.raises(ValueError):
            run_recorded(sys, mu0, cfg, 0.01, 5, record_every=0)

    def test_record_every_keeps_final_step(self):
        sys = RigidBody()
        records = run_recorded(sys, sys.initial_state(0), StepperConfig(), 0.01, 10, record_every=3)
        assert [r.step for r in records] == [0, 3, 6, 9, 10]

    def test_baseline_methods(self):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        cfg = StepperConfig()
        gaw = run_recorded(sys, mu0, cfg, 0.05, 5, method="gawlik")
        assert all(r.solver_iters_total > 0 for r in gaw[1:])
        rk4 = run_recorded(sys, mu0, cfg, 0.05, 5, method="rk4")
        assert all(r.solver_iters_total == 0 for r in rk4)

    def test_isospectral_iters_accumulate_over_stages(self):
        sys = RigidBody()
        cfg = StepperConfig(tableau=builtin("sdirk2"))
        records = run_recorded(sys, sys.initial_state(0), cfg, 0.01, 3)
        assert all(r.solver_iters_total >= 2 for r in records[1:])

    def test_failure_reports_step(self):
        sys = RigidBody()
        mu0 = sys.initial_state(42, scale=4.0)
        with pytest.raises(NonConvergenceError) as info:
            run_recorded(sys, mu0, StepperConfig(), 8.0, 5)
        assert info.value.step == 0


class TestConvergenceStudy:
    def test_midpoint_is_second_order(self):
        report = convergence_study(RigidBody(), [0.2, 0.1, 0.05], 1.0)
        assert isinstance(report, ConvergenceReport)
        assert report.h_values == (0.2, 0.1, 0.05)
        assert all(e > 0 for e in report.errors)
        assert 1.8 < report.fitted_slope < 2.2

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    def test_duplicate_h_gives_identical_errors(self):
        report = convergence_study(RigidBody(), [0.1, 0.1], 0.5)
        assert report.errors[0] == report.errors[1]

    def test_input_validation(self):
        cases = [
            ([0.1], 1.0, None, "two step sizes"),
            ([0.1, -0.05], 1.0, None, "h_list.*positive"),
            ([0.1, 0.05], 1.0, 0.05, "reference_h"),
            ([0.3, 0.1], 1.0, None, "integer multiple"),
            # Non-finite inputs name their field; NaN fails every ordering test.
            ([0.2, 0.1, 0.05], math.inf, None, "t_final.*finite"),
            ([0.2, 0.1, 0.05], math.nan, None, "t_final.*finite"),
            ([0.2, 0.1, 0.05], -1.0, None, "t_final.*positive"),
            ([0.2, 0.1, math.nan], 1.0, None, "h_list.*finite"),
            ([0.2, 0.1, math.inf], 1.0, None, "h_list.*finite"),
            ([0.2, 0.1, 0.05], 1.0, math.nan, "reference_h.*positive"),
            ([0.2, 0.1, 0.05], 1.0, -0.001, "reference_h.*positive"),
            # Subnormal step sizes pass the checks above but overflow t_final / h.
            ([1e-320, 2e-320, 4e-320], 1.0, None, "h = .*not finite"),
        ]
        for h_list, t_final, reference_h, match in cases:
            with pytest.raises(ValueError, match=match):
                convergence_study(RigidBody(), h_list, t_final, reference_h)

    def test_explicit_reference_h(self):
        report = convergence_study(RigidBody(), [0.2, 0.1], 1.0, reference_h=0.0125)
        assert 1.7 < report.fitted_slope < 2.3

    def test_partial_report_attached_on_failure(self):
        sys = RigidBody()
        mu0 = sys.initial_state(42, scale=4.0)
        with pytest.raises(NonConvergenceError) as info:
            convergence_study(sys, [8.0, 0.25], 8.0, mu0=mu0)
        partial = info.value.partial
        assert partial.errors == ()
        assert math.isnan(partial.fitted_slope)

    def test_failure_reports_step(self):
        # The reference run's first step overflows, and the sweep's
        # runs share the stepping loop that attaches the step index.
        with pytest.raises(NonConvergenceError) as info:
            convergence_study(RigidBody(), [1e300, 2e300, 4e300], 4e300)
        assert info.value.step == 0
        assert info.value.stage == 0
        assert info.value.partial.errors == ()

    def test_respects_caller_stepper_config(self):
        # The sweep steps with the caller's tableau and update form.
        cfg = StepperConfig(update_form="dcay", tableau=builtin("sdirk2"))
        report = convergence_study(RigidBody(), [0.2, 0.1], 1.0, cfg=cfg)
        assert 1.8 < report.fitted_slope < 2.2
        midpoint = convergence_study(RigidBody(), [0.2, 0.1], 1.0)
        assert report.errors != midpoint.errors


class TestCsv:
    def _records(self, n=5):
        sys = ZeitlinSphere(N=5)
        return run_recorded(sys, sys.initial_state(1), StepperConfig(), 0.02, n), sys

    def test_header_names_follow_casimir_orders(self, tmp_path):
        records, _ = self._records(2)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "step,t,energy,energy_drift,spectral_drift,"
            "casimir_2,casimir_3,casimir_4,casimir_5,solver_iters,membership_residual"
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "out.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_output_is_byte_deterministic(self, tmp_path):
        records, _ = self._records()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(records, a)
        write_csv(records, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_empty_records_write_bare_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "step,t,energy,energy_drift,spectral_drift,solver_iters,membership_residual\n"
        assert read_csv(path) == []

    def test_golden_trajectory_reproduces_byte_for_byte(self, tmp_path):
        # Frozen reference run: rigid body, seed 42, 100 midpoint steps
        # at h = 0.01.  Catches any numerical or formatting change.
        sys = RigidBody()
        records = run_recorded(sys, sys.initial_state(42), StepperConfig(), 0.01, 100)
        path = tmp_path / "regen.csv"
        write_csv(records, path)
        golden = pathlib.Path(__file__).parent / "data" / "rigidbody-midpoint-seed42.csv"
        assert path.read_bytes() == golden.read_bytes()

    def test_mixed_casimir_counts_rejected(self, tmp_path):
        base = dict(
            step=0, t=0.0, energy=1.0, energy_drift=0.0, spectral_drift=0.0,
            solver_iters_total=0, membership_residual=0.0,
        )
        records = [
            TrajectoryRecord(casimir_values=(1.0,), **base),
            TrajectoryRecord(casimir_values=(1.0, 2.0), **base),
        ]
        with pytest.raises(ValueError, match="casimir"):
            write_csv(records, tmp_path / "bad.csv")
