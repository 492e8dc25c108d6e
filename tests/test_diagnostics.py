"""Trajectory metrics, recorded runs, convergence sweeps, CSV round trips."""

import math
import pathlib
import pickle
from dataclasses import replace

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
from isork.integrator import (
    NonConvergenceError,
    StageLinAlgError,
    StepperConfig,
    _drive,
    classical_rk4_step,
    gawlik_step,
    isospectral_sdirk_step,
    solve_stage,
)
from isork.quadlie import cayley, random_algebra_element
from isork.systems import IsospectralSystem, RigidBody, TodaExtended, ZeitlinSphere
from isork.tableau import builtin
from test_quadlie import _loop_spectrum


def _per_state_record(system, energy0, mu0, mu_n, solver_iters, step, h):
    """The record body before blocks: one loop-clustered spectrum per state."""
    energy = float(system.hamiltonian(mu_n))
    try:
        drift = float(np.max(np.abs(_loop_spectrum(mu_n) - _loop_spectrum(mu0))))
    except np.linalg.LinAlgError:
        drift = float("nan")
    return TrajectoryRecord(
        step=step,
        t=step * h,
        energy=energy,
        energy_drift=energy - energy0,
        spectral_drift=drift,
        casimir_values=tuple(float(c) for c in system.casimirs(mu_n)),
        solver_iters_total=solver_iters,
        membership_residual=float(system.state_residual(mu_n)),
    )


def _count_calls(system, monkeypatch):
    """Shapes passed to spectrum and to the system's measurements, per name."""
    calls = {"spectrum": [], "hamiltonian": [], "casimirs": [], "state_residual": []}

    def counted(name, fn):
        return lambda w: calls[name].append(w.shape) or fn(w)

    monkeypatch.setattr(diag, "spectrum", counted("spectrum", diag.spectrum))
    for name in ("hamiltonian", "casimirs", "state_residual"):
        monkeypatch.setattr(system, name, counted(name, getattr(system, name)))
    return calls


def _per_state_run(system, mu0, h, n_steps, method, record_every=1):
    """run_recorded with the default config, recording state by state."""
    cfg = StepperConfig()
    step = {
        "isospectral": lambda mu: isospectral_sdirk_step(mu, system, cfg, h),
        "gawlik": lambda mu: gawlik_step(mu, h, system, cfg),
        "rk4": lambda mu: (classical_rk4_step(mu, h, system), []),
    }[method]
    # The reference is measured here, state by state, not read off a Recorder.
    energy0 = float(system.hamiltonian(mu0))
    return [
        _per_state_record(system, energy0, mu0, mu, sum(s.iters for s in stages), n, h)
        for n, mu, stages in _drive(step, mu0, n_steps)
        if n % record_every == 0 or n == n_steps
    ]


class TestRecord:
    def test_initial_point_has_zero_drifts(self):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        [r] = Recorder(sys).record([(0, mu0, 0)])
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
        rec = Recorder(sys)
        rec.record([(0, mu0, 0)])
        [r] = rec.record([(3, moved, 0)], h=0.5)
        assert r.spectral_drift < 1e-13
        assert r.t == 1.5

    def test_recorder_matches_one_shot(self):
        # A Recorder reused along a trajectory gives what a fresh one that
        # recorded only mu0 gives for each point: the reference is all it keeps.
        sys = ZeitlinSphere(N=5)
        mu0 = sys.initial_state(2)
        st = solve_stage(mu0, 0.05, sys, StepperConfig())
        rec, fresh = Recorder(sys), Recorder(sys)
        rec.record([(0, mu0, 0)])
        rec.record([(1, st.mu_half, st.iters)], h=0.05)
        fresh.record([(0, mu0, 0)])
        point = [(2, st.mu_stage, st.iters)]
        assert rec.record(point, h=0.05) == fresh.record(point, h=0.05)

    def test_eigensolver_failure_is_flagged_not_raised(self, monkeypatch):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        rec = Recorder(sys)
        rec.record([(0, mu0, 0)])  # measures spectrum0 before the patch

        def explode(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(diag, "spectrum", explode)
        [r] = rec.record([(1, mu0, 0)], h=0.1)
        assert math.isnan(r.spectral_drift)
        assert r.energy_drift == 0.0

    def test_first_recorded_state_is_the_reference(self, monkeypatch):
        # Building a Recorder measures nothing; the first record's row of
        # the block's calls is the reference, by value that of mu0 alone.
        sys = ZeitlinSphere(N=5)
        mu0 = sys.initial_state(4)
        moved = mu0 + 0.01 * sys.initial_state(5)
        calls = _count_calls(sys, monkeypatch)
        rec = Recorder(sys)
        assert rec.spectrum0 is None and rec.energy0 is None
        assert all(shapes == [] for shapes in calls.values())
        first, second = rec.record([(0, mu0, 0), (1, moved, 0)], h=0.1)
        assert first.spectral_drift == 0.0 and first.energy_drift == 0.0
        assert np.array_equal(rec.spectrum0, diag.spectrum(mu0))
        assert rec.energy0 == float(sys.hamiltonian(mu0))
        expected = np.max(np.abs(diag.spectrum(moved) - diag.spectrum(mu0)))
        assert second.spectral_drift == expected > 0.0
        assert second.energy_drift == float(sys.hamiltonian(moved)) - float(sys.hamiltonian(mu0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("make", [RigidBody, lambda: TodaExtended(4), lambda: ZeitlinSphere(5)])
    def test_nan_initial_state_reads_nan_drifts(self, make):
        # mu0 fails its own eigensolve, so the reference is a NaN row and
        # no drift of the run can be measured; nothing is raised.
        sys = make()
        mu0 = sys.initial_state(0).copy()
        mu0[0, 1] = math.nan
        got = run_recorded(sys, mu0, StepperConfig(), 0.05, 70, method="rk4")
        assert [r.step for r in got] == list(range(71))
        assert all(math.isnan(r.spectral_drift) and math.isnan(r.energy_drift) for r in got)

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("method", ["isospectral", "gawlik", "rk4"])
    @pytest.mark.parametrize(
        "make, h", [(RigidBody, 0.05), (lambda: TodaExtended(4), 0.05), (lambda: ZeitlinSphere(9), 0.005)]
    )
    def test_block_matches_per_state_reference(self, make, h, method, record_every):
        # 151 or 23 recorded states: record_every=1 crosses two block
        # boundaries, record_every=7 fills a single short block.
        sys = make()
        mu0 = sys.initial_state(3)
        got = run_recorded(sys, mu0, StepperConfig(), h, 150, method=method, record_every=record_every)
        assert repr(got) == repr(_per_state_run(sys, mu0, h, 150, method, record_every))

    def test_real_state_among_complex_ones_keeps_its_spectrum(self):
        # A real so(N) state on the sphere steps to complex states; a
        # block stacked through complex would move the first drift off 0.
        sys = ZeitlinSphere(N=5)
        mu0 = np.ascontiguousarray(sys.initial_state(0).real)
        got = run_recorded(sys, mu0, StepperConfig(), 0.01, 70)
        assert got[0].spectral_drift == 0.0
        assert repr(got) == repr(_per_state_run(sys, mu0, 0.01, 70, "isospectral"))

    def test_one_spectrum_call_per_block(self, monkeypatch):
        # One spectrum, energy, Casimir and membership call per block of 64
        # recorded states; step 0 is measured in the first block only.
        sys = RigidBody()
        calls = _count_calls(sys, monkeypatch)
        run_recorded(sys, sys.initial_state(0), StepperConfig(), 0.01, 150)
        blocks = [(64, 3, 3), (64, 3, 3), (23, 3, 3)]
        assert calls["spectrum"] == calls["hamiltonian"] == blocks
        assert calls["casimirs"] == calls["state_residual"] == blocks

    @pytest.mark.parametrize("record_every", [1, 4])
    @pytest.mark.parametrize(
        "make, h, budget, size", [(RigidBody, 0.05, 5 * 72, 5), (lambda: ZeitlinSphere(9), 0.005, 3000, 3)]
    )
    def test_blocks_flush_at_the_byte_budget(self, monkeypatch, make, h, budget, size, record_every):
        # 72 bytes per rigid state, so 5 fill 360; 1296 per N = 9 state, so 3 pass 3000.
        sys = make()
        mu0 = sys.initial_state(3)
        ref = _per_state_run(sys, mu0, h, 150, "isospectral", record_every)
        monkeypatch.setattr(diag, "_RECORD_BYTES", budget)
        calls = _count_calls(sys, monkeypatch)
        got = run_recorded(sys, mu0, StepperConfig(), h, 150, record_every=record_every)
        sizes = [shape[0] for shape in calls["state_residual"]]
        assert sizes == [size] * (len(ref) // size) + ([len(ref) % size] if len(ref) % size else [])
        assert repr(got) == repr(ref)

    def test_default_byte_budget_caps_large_states(self, monkeypatch):
        # A Zeitlin N = 65 state takes 67,600 bytes: 32 of them pass 2 MiB.
        sys = ZeitlinSphere(N=65)
        calls = _count_calls(sys, monkeypatch)
        run_recorded(sys, sys.initial_state(0), StepperConfig(), 0.0025, 40)
        assert calls["spectrum"] == [(32, 65, 65), (9, 65, 65)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_run_reads_nan_where_the_reference_does(self):
        # RK4 on Toda at h = 0.3 overflows at step 5, inside the first
        # block, and eigvals rejects the stack that holds those states.
        sys = TodaExtended(4)
        mu0 = sys.initial_state(0)
        got = run_recorded(sys, mu0, StepperConfig(), 0.3, 150, method="rk4")
        ref = _per_state_run(sys, mu0, 0.3, 150, "rk4")
        assert [math.isnan(r.spectral_drift) for r in got] == [n >= 5 for n in range(151)]
        assert repr(got) == repr(ref)

    def test_failing_state_alone_reads_nan(self, monkeypatch):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        points = [(n, mu, 0) for n, mu, _ in _drive(lambda mu: (classical_rk4_step(mu, 0.1, sys), []), mu0, 9)]
        rec = Recorder(sys)
        clean = rec.record(points, h=0.1)
        bad = points[4][1]
        real_spectrum = diag.spectrum

        def fails_on_bad(a):
            if any(np.array_equal(m, bad) for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("no convergence")
            return real_spectrum(a)

        monkeypatch.setattr(diag, "spectrum", fails_on_bad)
        got = rec.record(points, h=0.1)
        assert [math.isnan(r.spectral_drift) for r in got] == [n == 4 for n in range(10)]
        assert [r for n, r in enumerate(got) if n != 4] == [r for n, r in enumerate(clean) if n != 4]
        assert replace(got[4], spectral_drift=clean[4].spectral_drift) == clean[4]


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
        # Fractional counts are rejected, never truncated or left to range().
        with pytest.raises(ValueError, match=r"^n_steps must be an integer, got 2\.5$"):
            run_recorded(sys, mu0, cfg, 0.01, 2.5)
        with pytest.raises(ValueError, match=r"^record_every must be an integer, got 1\.5$"):
            run_recorded(sys, mu0, cfg, 0.01, 4, record_every=1.5)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("method", ["isospectral", "gawlik", "rk4"])
    def test_step_size_must_be_finite_and_nonzero(self, method, h):
        sys = RigidBody()
        with pytest.raises(ValueError, match=r"^step size must be finite and nonzero, got") as info:
            run_recorded(sys, sys.initial_state(0), StepperConfig(), h, 5, method=method)
        assert type(info.value) is ValueError

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

    @pytest.mark.filterwarnings("error")
    def test_duplicate_h_gives_identical_errors(self):
        # One distinct step size fits no slope; polyfit is not called.
        report = convergence_study(RigidBody(), [0.1, 0.1], 0.5)
        assert report.errors[0] == report.errors[1]
        assert math.isnan(report.fitted_slope)

    @pytest.mark.filterwarnings("error")
    def test_zero_errors_fit_no_slope(self):
        # An equilibrium is stepped exactly at every step size, so every
        # error is zero and log(error) has nothing to fit.
        report = convergence_study(RigidBody(), [0.2, 0.1], 1.0, mu0=np.zeros((3, 3)))
        assert report.errors == (0.0, 0.0)
        assert math.isnan(report.fitted_slope)

    def test_input_validation(self):
        cases = [
            ([0.1], 1.0, None, "two step sizes"),
            ([0.1, -0.05], 1.0, None, "h_list.*positive"),
            # An iterator is read once: a second read would find no step sizes.
            (iter([0.1, -0.05]), 1.0, None, r"^h_list step size must be positive and finite, got -0\.05$"),
            ([0.1, 0.05], 1.0, 0.05, "reference_h"),
            ([0.3, 0.1], 1.0, None, "integer multiple"),
            # The tolerance is relative: 4e-11 does not divide a t_final below 1e-9.
            ([4e-11, 2e-11, 1e-11], 1e-10, None, "integer multiple"),
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
            # The default reference_h, min(h_list)/8, rounds to zero below 8 * 5e-324.
            ([5e-324, 1e-323], 1.0, None, r"^reference_h must be positive and finite, got 0\.0$"),
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

    def test_partial_report_attached_on_breakdown(self, monkeypatch):
        # A singular solve in the h = 0.1 run, after the reference and the h = 0.2 run.
        def singular_at_h_0_1(mu, system, cfg, h):
            if h == 0.1:
                raise np.linalg.LinAlgError("Singular matrix")
            return isospectral_sdirk_step(mu, system, cfg, h)

        monkeypatch.setattr("isork.diagnostics.isospectral_sdirk_step", singular_at_h_0_1)
        with pytest.raises(StageLinAlgError) as info:
            convergence_study(RigidBody(), [0.2, 0.1, 0.05], 1.0)
        assert info.value.step == 0
        assert info.value.partial.h_values == (0.2,)
        assert len(info.value.partial.errors) == 1

    def test_partial_report_is_the_full_reports_prefix(self, monkeypatch):
        sys = RigidBody()
        full = convergence_study(sys, [0.2, 0.1, 0.05], 1.0)
        first_two = convergence_study(sys, [0.2, 0.1], 1.0, reference_h=0.00625)
        assert first_two.h_values == full.h_values[:2] and first_two.errors == full.errors[:2]
        real_step = diag.isospectral_sdirk_step

        def singular_at_h_0_05(mu, system, cfg, h):
            if h == 0.05:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_step(mu, system, cfg, h)

        monkeypatch.setattr(diag, "isospectral_sdirk_step", singular_at_h_0_05)
        with pytest.raises(StageLinAlgError) as info:
            convergence_study(sys, [0.2, 0.1, 0.05], 1.0)
        assert info.value.partial == first_two
        assert info.value.member == "h = 0.05"
        assert str(info.value) == "numerical error at step 0: Singular matrix (for h = 0.05)"
        assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)

    def test_every_step_count_is_checked_before_stepping(self, monkeypatch):
        # 0.3 does not divide 1; the 10,000-step reference is never stepped.
        calls = []
        real_step = diag.isospectral_sdirk_step
        monkeypatch.setattr(diag, "isospectral_sdirk_step", lambda *args: calls.append(1) or real_step(*args))
        with pytest.raises(ValueError, match=r"^t_final = 1.0 is not an integer multiple of h = 0.3$"):
            convergence_study(RigidBody(), [0.3, 0.2, 0.1], 1.0, reference_h=1e-4)
        assert len(calls) == 0

    def test_failure_reports_step(self):
        # The reference run's first step overflows, and the sweep's
        # runs share the stepping loop that attaches the step index.
        with pytest.raises(NonConvergenceError) as info:
            convergence_study(RigidBody(), [1e300, 2e300, 4e300], 4e300)
        assert info.value.step == 0
        assert info.value.stage == 0
        assert info.value.member == "reference_h = 1.25e+299"
        assert info.value.partial.errors == ()

    def test_respects_caller_stepper_config(self):
        # The sweep steps with the caller's tableau and update form.
        cfg = StepperConfig(update_form="dcay", tableau=builtin("sdirk2"))
        report = convergence_study(RigidBody(), [0.2, 0.1], 1.0, cfg=cfg)
        assert 1.8 < report.fitted_slope < 2.2
        midpoint = convergence_study(RigidBody(), [0.2, 0.1], 1.0)
        assert report.errors != midpoint.errors

    @pytest.mark.parametrize("update_form", ["conjugation", "dcay"])
    @pytest.mark.parametrize("variant", ["left", "right"])
    @pytest.mark.parametrize("tableau, order", [("midpoint", 2), ("sdirk2", 2), ("yoshida4", 4), ("suzuki4", 4)])
    @pytest.mark.parametrize(
        "system, t_final, h_list",
        [(TodaExtended(4), 1.0, [0.05, 0.025, 0.0125]), (ZeitlinSphere(N=9), 0.2, [0.02, 0.01, 0.005])],
        ids=["toda4", "zeitlin9"],
    )
    def test_order_on_real_and_complex_stages(self, system, t_final, h_list, tableau, order, variant, update_form):
        # Criterion 6's bands, on the systems the rigid body does not cover:
        # real stages above n = 3 (chord steps) and complex su(N) stages.
        # The Toda h list is fine enough for yoshida4's error to be asymptotic.
        cfg = StepperConfig(variant=variant, update_form=update_form, tableau=builtin(tableau))
        slope = convergence_study(system, h_list, t_final, cfg=cfg, seed=0).fitted_slope
        assert abs(slope - order) < (0.1 if order == 2 else 0.2)


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

    @pytest.mark.parametrize("make", [RigidBody, lambda: TodaExtended(4), lambda: ZeitlinSphere(5)])
    def test_columns_pair_with_record_fields(self, make, tmp_path):
        sys = make()
        records = run_recorded(sys, sys.initial_state(1), StepperConfig(), 0.02, 3)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        header, *lines = path.read_text().splitlines()
        for r, line in zip(records, lines, strict=True):
            cols = dict(zip(header.split(","), line.split(","), strict=True))
            assert cols["solver_iters"] == str(r.solver_iters_total)
            for k, c in enumerate(r.casimir_values, start=2):
                assert cols[f"casimir_{k}"] == repr(c)
        assert records[-1].solver_iters_total > 0
        assert read_csv(path) == records

    def test_round_trip_is_bit_exact(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "out.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_records_without_casimirs_round_trip(self, tmp_path):
        records = [
            TrajectoryRecord(step=n, t=0.1 * n, energy=1.5, energy_drift=-2e-17 * n, spectral_drift=math.nan,
                             casimir_values=(), solver_iters_total=3 * n, membership_residual=1e-300)
            for n in range(3)
        ]
        path = tmp_path / "bare.csv"
        write_csv(records, path)
        assert path.read_text().splitlines()[0] == (
            "step,t,energy,energy_drift,spectral_drift,solver_iters,membership_residual"
        )
        # NaN != NaN, so compare reprs.
        assert repr(read_csv(path)) == repr(records)

    def test_system_without_casimirs_records_and_round_trips(self, tmp_path):
        # A system that reports no Casimirs records rows with none, and
        # its CSV has no Casimir columns.
        class Bare(RigidBody):
            casimir_orders = ()
            casimirs = IsospectralSystem.casimirs

        sys = Bare()
        records = run_recorded(sys, sys.initial_state(1), StepperConfig(), 0.02, 4)
        assert [r.step for r in records] == [0, 1, 2, 3, 4]
        assert all(r.casimir_values == () for r in records)
        path = tmp_path / "bare.csv"
        write_csv(records, path)
        assert path.read_text().splitlines()[0] == (
            "step,t,energy,energy_drift,spectral_drift,solver_iters,membership_residual"
        )
        assert read_csv(path) == records

    def test_numpy_scalar_fields_round_trip(self, tmp_path):
        record = TrajectoryRecord(
            step=np.int64(3), t=0.1, energy=np.float64(1.0), energy_drift=np.float64(-2e-17),
            spectral_drift=0.0, casimir_values=(np.float64(0.5),), solver_iters_total=np.int64(7),
            membership_residual=np.float64(1e-300),
        )
        path = tmp_path / "numpy.csv"
        write_csv([record], path)
        assert path.read_text().splitlines()[1] == "3,0.1,1.0,-2e-17,0.0,0.5,7,1e-300"
        assert read_csv(path) == [record]

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
        # Checked before the file is opened: a fresh path gets no file and
        # an existing file keeps its bytes.
        assert not (tmp_path / "bad.csv").exists()
        good = tmp_path / "good.csv"
        write_csv(records[:1], good)
        before = good.read_bytes()
        with pytest.raises(ValueError, match="casimir"):
            write_csv(records, good)
        assert good.read_bytes() == before
