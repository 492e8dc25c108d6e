"""Stage solves, macro steps, cotangent form, and reference baselines."""

import math
import pickle
import traceback

import numpy as np
import pytest

from isork.integrator import (
    _FIT_PERIOD,
    _MIXING_DEPTH,
    _PLAIN_SWEEPS,
    _AndersonMixer,
    CotangentState,
    NonConvergenceError,
    StageLinAlgError,
    StepperConfig,
    classical_rk4_step,
    cotangent_lift,
    cotangent_sdirk_step,
    gawlik_step,
    isospectral_sdirk_step,
    momentum_map,
    run_trajectory,
    solve_stage,
)
from isork.quadlie import (
    _half_factors,
    _solve_right,
    cayley_conjugate,
    commutator,
    dcay,
    dcay_inv,
    membership_residuals,
    orthogonal_structure,
    random_algebra_element,
    spectrum,
)
from isork.systems import RigidBody, TodaExtended, ZeitlinSphere
from isork.tableau import builtin


class _ZeroFlow:
    """B = 0 everywhere; every state is an equilibrium."""

    context = orthogonal_structure(3)

    def B(self, w):
        return np.zeros_like(w)


class _CountingB:
    """Delegates B to a system and counts the evaluations."""

    def __init__(self, system):
        self.system = system
        self.calls = 0

    def B(self, w):
        self.calls += 1
        return self.system.B(w)


class _FaultAtCall:
    """Delegates B to a system until call number `at`, which either
    raises a singular-matrix LinAlgError or returns NaN entries."""

    def __init__(self, system, at, fault):
        self.system = system
        self.at = at
        self.fault = fault
        self.calls = 0

    def B(self, w):
        self.calls += 1
        if self.calls == self.at:
            if self.fault == "linalg":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(w, np.nan)
        return self.system.B(w)


class _ConstantFlow:
    """B fixed, so mu_dot = [B0, mu] is linear with exact solution Ad_exp."""

    def __init__(self, b0):
        self.b0 = b0

    def B(self, w):
        return self.b0


def _cfg(**kw):
    return StepperConfig(**kw)


def _singular_at_step_3_stage_1(monkeypatch):
    """Make solve_stage raise a singular-matrix LinAlgError at step 3, stage 1 of a yoshida4 run."""
    calls = []

    def failing_solve_stage(mu_prev, h_i, system, cfg):
        calls.append(h_i)
        if len(calls) == 3 * 3 + 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve_stage(mu_prev, h_i, system, cfg)

    monkeypatch.setattr("isork.integrator.solve_stage", failing_solve_stage)


def _stage_defect(mu, mu_prev, a, system):
    """(I - a B(mu)) mu (I + a B(mu)) - mu_prev, in the library's arithmetic."""
    b = system.B(mu)
    bmu = b @ mu
    return mu - a * (bmu - mu @ b) - (a * a) * (bmu @ b) - mu_prev


def _picard_stage(mu_prev, h_i, system, tol, max_iters=10_000):
    """Plain Picard stage solve, the reference for the mixed solver.

    Same defect arithmetic and stopping test as the library; returns
    (stage matrix, sweeps).
    """
    a = h_i / 2.0
    mu = mu_prev
    scale = tol * (1.0 + float(np.linalg.norm(mu_prev)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            defect = _stage_defect(mu, mu_prev, a, system)
            residual = float(np.linalg.norm(defect))
            if residual <= scale:
                return mu, k + 1
            if not np.isfinite(residual):
                break
            mu = mu - defect
    raise NonConvergenceError(k + 1, residual)


def _picard_floor(mu_prev, h_i, system, sweeps=3_000):
    """The least-defect iterate of `sweeps` plain Picard sweeps.

    A contracting iteration stalls at the roundoff floor long before
    the last sweep, so this is the stage solution to within roundoff,
    not another tolerance-level solution.
    """
    a = h_i / 2.0
    mu, best, best_residual = mu_prev, mu_prev, math.inf
    for _ in range(sweeps):
        defect = _stage_defect(mu, mu_prev, a, system)
        residual = float(np.linalg.norm(defect))
        if residual < best_residual:
            best, best_residual = mu, residual
        mu = mu - defect
    return best


class TestStepperConfig:
    def test_defaults(self):
        cfg = StepperConfig()
        assert cfg.variant == "left"
        assert cfg.update_form == "conjugation"
        assert cfg.tableau.name == "midpoint"

    @pytest.mark.parametrize(
        "kw",
        [
            {"variant": "central"},
            {"update_form": "exp"},
            {"solver_tol": 0.0},
            {"solver_tol": -1e-13},
            {"solver_max_iters": 0},
            {"solver_tol": float("nan")},
            {"solver_tol": 1e-320},
            {"solver_tol": float(np.nextafter(np.finfo(float).eps, 0.0))},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            StepperConfig(**kw)

    @pytest.mark.parametrize(
        "sys, tableau, h",
        [(RigidBody(), "midpoint", 0.01), (TodaExtended(4), "yoshida4", 0.1), (ZeitlinSphere(N=17), "midpoint", 0.0025)],
        ids=["rigidbody", "toda", "zeitlin"],
    )
    def test_machine_epsilon_tolerance_is_met(self, sys, tableau, h):
        # The floor of solver_tol rejects only tolerances below roundoff:
        # at the floor itself every stage of these runs converges.
        cfg = _cfg(solver_tol=np.finfo(float).eps, tableau=builtin(tableau))
        traj = run_trajectory(sys.initial_state(0), sys, cfg, h, 20)
        assert max(st.iters for _, stages in traj for st in stages) <= 50


class TestSolveStage:
    def test_zero_flow_converges_immediately(self):
        mu = random_algebra_element(orthogonal_structure(3), 5)
        st = solve_stage(mu, 0.1, _ZeroFlow(), _cfg())
        assert st.iters == 1
        assert st.residual == 0.0
        assert np.array_equal(st.mu_stage, mu)
        assert np.array_equal(st.mu_half, mu)

    def test_zero_substep(self):
        sys = RigidBody()
        mu = sys.initial_state(5)
        st = solve_stage(mu, 0.0, sys, _cfg())
        assert st.iters == 1
        assert np.allclose(st.mu_half, mu, atol=1e-15)

    def test_iteration_count_regression(self):
        sys = RigidBody()
        mu = sys.initial_state(42)
        st = solve_stage(mu, 0.01, sys, _cfg())
        assert 3 <= st.iters <= 6
        assert st.iters <= 50
        assert st.residual <= 1e-13 * (1.0 + np.linalg.norm(mu))

    def test_one_B_evaluation_per_sweep(self):
        # The generator of the converged iterate is reused for the update,
        # and the mixed sweeps of a slowly contracting Toda stage cost one
        # evaluation each like the plain ones.
        for form in ("conjugation", "dcay"):
            spy = _CountingB(RigidBody())
            st = solve_stage(spy.system.initial_state(42), 0.01, spy, _cfg(update_form=form))
            assert spy.calls == st.iters > 1
            spy = _CountingB(TodaExtended(4))
            st = solve_stage(spy.system.initial_state(0), 0.1, spy, _cfg(update_form=form))
            assert spy.calls == st.iters > _PLAIN_SWEEPS + 1

    def test_stage_matrix_satisfies_implicit_relation(self):
        # The converged stage matrix is the dcay image of the entering
        # half point under its own generator.
        for sys, seed in ((RigidBody(), 3), (ZeitlinSphere(N=5), 1)):
            mu = sys.initial_state(seed)
            st = solve_stage(mu, 0.05, sys, _cfg())
            xi = 0.05 * sys.B(st.mu_stage)
            gap = np.linalg.norm(st.mu_stage - dcay(xi, mu))
            assert gap < 1e-12 * (1.0 + np.linalg.norm(mu))

    def test_update_forms_agree_at_tolerance(self):
        sys = RigidBody()
        mu = sys.initial_state(7)
        a = solve_stage(mu, 0.05, sys, _cfg(update_form="conjugation"))
        b = solve_stage(mu, 0.05, sys, _cfg(update_form="dcay"))
        assert np.array_equal(a.mu_stage, b.mu_stage)
        assert np.linalg.norm(a.mu_half - b.mu_half) < 1e-12

    def test_conjugation_preserves_spectrum_at_any_residual(self):
        # Even a barely converged stage updates by exact similarity.
        sys = RigidBody()
        mu = sys.initial_state(9, scale=2.0)
        loose = _cfg(solver_tol=1e-3)
        spec0 = spectrum(mu)
        st = solve_stage(mu, 0.2, sys, loose)
        assert st.residual > 1e-9  # genuinely loose solve
        assert np.max(np.abs(spectrum(st.mu_half) - spec0)) < 1e-13

    def test_divergence_raises_and_halving_recovers(self):
        sys = RigidBody()
        mu = sys.initial_state(42, scale=4.0)
        with pytest.raises(NonConvergenceError):
            solve_stage(mu, 4.0, sys, _cfg())
        st = solve_stage(mu, 2.0, sys, _cfg())
        assert st.iters <= 50

    def test_mixing_converges_where_picard_diverges(self):
        # Plain Picard iteration overflows on this stage after 70 sweeps.
        sys = RigidBody()
        mu = sys.initial_state(42, scale=4.0)
        st = solve_stage(mu, 2.0, sys, _cfg())
        assert _PLAIN_SWEEPS < st.iters <= 50
        assert st.residual <= 1e-13 * (1.0 + np.linalg.norm(mu))
        with pytest.raises(NonConvergenceError):
            _picard_stage(mu, 2.0, sys, 1e-13)
        assert np.max(np.abs(spectrum(st.mu_half) - spectrum(mu))) < 1e-13

    @pytest.mark.parametrize(
        "sys, seed, h, mixes",
        [
            (RigidBody(), 42, 0.01, False),
            (RigidBody(), 3, 0.1, False),
            (ZeitlinSphere(N=9), 1, 0.005, False),
            (ZeitlinSphere(N=9), 2, 0.02, False),
            (ZeitlinSphere(N=9), 1, 0.02, True),
            (TodaExtended(4), 0, 0.05, True),
            (TodaExtended(4), 0, 0.1, True),
            (ZeitlinSphere(N=9), 1, 0.015, False),
            # Both settle at exactly _PLAIN_SWEEPS + _FIT_PERIOD sweeps: the
            # iterates of their last two sweeps come from the mixer unfitted.
            (TodaExtended(4), 0, 0.005, False),
            (ZeitlinSphere(N=33), 0, 0.03, False),
        ],
    )
    def test_matches_plain_picard(self, sys, seed, h, mixes):
        # Plain Picard iteration is the reference.  Up to the first
        # sweep that follows a fit, the solver runs exactly its
        # arithmetic, so a stage it settles by then is bit-identical.  A
        # slower stage satisfies the stage equation within the solver
        # tolerance, in no more sweeps, and lands near the stage solution.
        mu = sys.initial_state(seed)
        tol = 1e-13
        ref, ref_iters = _picard_stage(mu, h, sys, tol)
        st = solve_stage(mu, h, sys, _cfg(solver_tol=tol))
        assert mixes == (ref_iters > _PLAIN_SWEEPS + _FIT_PERIOD)
        if mixes:
            assert st.iters <= ref_iters
            a, b = h / 2.0, sys.B(st.mu_stage)
            eye = np.eye(mu.shape[0])
            defect = (eye - a * b) @ st.mu_stage @ (eye + a * b) - mu
            assert np.linalg.norm(defect) <= tol * (1.0 + np.linalg.norm(mu))
            # Measured from the solution at the roundoff floor, not from
            # the tolerance-level iterate ref: for Toda at h = 0.1 the
            # stage lies 0.81 of the bound from ref and 0.001 from floor.
            floor = _picard_floor(mu, h, sys)
            assert np.linalg.norm(st.mu_stage - floor) <= tol * (1.0 + np.linalg.norm(mu))
        else:
            assert st.iters == ref_iters
            assert np.array_equal(st.mu_stage, ref)

    def test_failed_mixing_step_is_the_plain_update(self, monkeypatch):
        # A singular fit (repeated pairs) and an overflowing one (huge
        # differences) both fall back to the map value G(x).  The pairs
        # before the call under test store differences without fitting;
        # the call under test is a fitting one and its solve fails.
        outcomes = []
        solve = np.linalg.solve

        def spy(*args):
            try:
                gamma = solve(*args)
            except np.linalg.LinAlgError:
                outcomes.append("singular")
                raise
            outcomes.append("finite" if np.isfinite(gamma).all() else "overflow")
            return gamma

        monkeypatch.setattr(np.linalg, "solve", spy)
        x = np.zeros((2, 2))
        ones = [np.ones((2, 2)) for _ in range(_FIT_PERIOD + 1)]
        huge = [x] * (_FIT_PERIOD - 1) + [np.full((2, 2), -1e200), np.full((2, 2), 1e200)]
        for pairs, outcome in ((ones, "singular"), (huge, "overflow")):
            mix = _AndersonMixer()
            outcomes.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                for gx in pairs[:-1]:
                    assert mix(x, gx) is gx
                assert outcomes == []
                assert mix(x, pairs[-1]) is pairs[-1]
            assert outcomes == [outcome]

    def test_one_least_squares_solve_per_fitting_sweep(self, monkeypatch):
        # Once mixing engages every sweep but the converged one feeds
        # the mixer, and every _FIT_PERIOD-th stored difference is
        # fitted with one solve.  Stages that settle within the plain
        # sweeps never build a mixer.  The dcay update makes no solve of
        # its own, so every solve counted here is a fit.
        solves, built, per_call = [], [], []
        solve = np.linalg.solve
        init, call = _AndersonMixer.__init__, _AndersonMixer.__call__

        def spy_solve(*args):
            solves.append(args)
            return solve(*args)

        def spy_init(mixer):
            built.append(mixer)
            init(mixer)

        def spy_call(mixer, x, gx):
            before = len(solves)
            out = call(mixer, x, gx)
            per_call.append(len(solves) - before)
            return out

        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        monkeypatch.setattr(_AndersonMixer, "__init__", spy_init)
        monkeypatch.setattr(_AndersonMixer, "__call__", spy_call)
        cfg = _cfg(update_form="dcay")
        for sys, seed, h in ((RigidBody(), 42, 0.01), (ZeitlinSphere(N=9), 1, 0.005)):
            st = solve_stage(sys.initial_state(seed), h, sys, cfg)
            assert st.iters <= _PLAIN_SWEEPS
        assert built == [] and solves == []
        sys = TodaExtended(4)
        st = solve_stage(sys.initial_state(0), 0.1, sys, cfg)
        assert len(built) == 1
        # Call c (from 0) stores its c-th difference.
        assert len(per_call) == st.iters - _PLAIN_SWEEPS
        fits = [int(c > 0 and c % _FIT_PERIOD == 0) for c in range(len(per_call))]
        assert per_call == fits
        assert len(solves) == sum(fits) > 0

    def test_equilibrium_is_fixed(self):
        w = np.zeros((3, 3))
        w[1, 2], w[2, 1] = 1.0, -1.0
        sys = RigidBody()
        st = solve_stage(w, 0.3, sys, _cfg())
        assert np.linalg.norm(st.mu_half - w) < 1e-14


class TestMacroStep:
    def test_variant_sign_equivalence(self):
        # The right variant flips both update halves, which is exactly
        # the arithmetic of stepping with -h.
        sys = RigidBody()
        mu = sys.initial_state(3)
        for name in ("midpoint", "sdirk2", "yoshida4"):
            tab = builtin(name)
            right, _ = isospectral_sdirk_step(
                mu, sys, _cfg(variant="right", tableau=tab), 0.05
            )
            left, _ = isospectral_sdirk_step(
                mu, sys, _cfg(variant="left", tableau=tab), -0.05
            )
            assert np.array_equal(right, left)

    def test_multi_stage_is_exact_substep_composition(self):
        sys = RigidBody()
        mu = sys.initial_state(6)
        tab = builtin("sdirk2")
        whole, _ = isospectral_sdirk_step(mu, sys, _cfg(tableau=tab), 0.1)
        cfg = _cfg(tableau=builtin("midpoint"))
        part, _ = isospectral_sdirk_step(mu, sys, cfg, 0.05)
        part, _ = isospectral_sdirk_step(part, sys, cfg, 0.05)
        assert np.array_equal(whole, part)

    def test_time_reversal(self):
        sys = RigidBody()
        mu = sys.initial_state(11)
        cfg = _cfg()
        fwd, _ = isospectral_sdirk_step(mu, sys, cfg, 0.05)
        back, _ = isospectral_sdirk_step(fwd, sys, cfg, -0.05)
        assert np.linalg.norm(back - mu) < 1e-12

    def test_stage_error_carries_index(self):
        sys = RigidBody()
        mu = sys.initial_state(42, scale=16.0)
        tab = builtin("sdirk2")
        with pytest.raises(NonConvergenceError) as info:
            isospectral_sdirk_step(mu, sys, _cfg(tableau=tab), 4.0)
        assert info.value.stage == 0
        assert "stage 0" in str(info.value)


class TestRunTrajectory:
    def test_shape_and_initial_entry(self):
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        cfg = _cfg()
        out = run_trajectory(mu0, sys, cfg, 0.05, 4)
        assert len(out) == 5
        assert out[0][1] == []
        assert np.array_equal(out[0][0], mu0)
        assert all(len(stages) == 1 for _, stages in out[1:])

    def test_rejects_empty_run(self):
        sys = RigidBody()
        cfg = _cfg()
        with pytest.raises(ValueError):
            run_trajectory(sys.initial_state(0), sys, cfg, 0.05, 0)

    def test_deterministic(self):
        sys = ZeitlinSphere(N=5)
        mu0 = sys.initial_state(8)
        cfg = _cfg()
        a = run_trajectory(mu0, sys, cfg, 0.01, 20)
        b = run_trajectory(mu0, sys, cfg, 0.01, 20)
        assert np.array_equal(a[-1][0], b[-1][0])

    def test_failure_carries_step_and_stage(self):
        sys = RigidBody()
        mu0 = sys.initial_state(42, scale=4.0)
        cfg = _cfg()
        with pytest.raises(NonConvergenceError) as info:
            run_trajectory(mu0, sys, cfg, 8.0, 3)
        assert info.value.step == 0
        assert info.value.stage == 0
        assert "step 0" in str(info.value)

    def test_exhausted_budget_carries_step_and_stage(self):
        # The first Toda yoshida4 stage at h = 0.1 needs 17 sweeps; with
        # 3 it stops at a finite residual above the tolerance.
        sys = TodaExtended(4)
        mu0 = sys.initial_state(0)
        cfg = _cfg(tableau=builtin("yoshida4"), solver_max_iters=3)
        with pytest.raises(NonConvergenceError) as info:
            solve_stage(mu0, 0.1 * cfg.tableau.b[0], sys, cfg)
        assert info.value.iters == 3
        assert cfg.solver_tol * (1.0 + np.linalg.norm(mu0)) < info.value.residual < math.inf
        with pytest.raises(NonConvergenceError) as info:
            run_trajectory(mu0, sys, cfg, 0.1, 3)
        assert (info.value.step, info.value.stage, info.value.iters) == (0, 0, 3)
        assert str(info.value).endswith("after 3 iterations")

    def test_linalg_failure_carries_step_and_stage(self, monkeypatch):
        _singular_at_step_3_stage_1(monkeypatch)
        sys = RigidBody()
        cfg = _cfg(tableau=builtin("yoshida4"))
        with pytest.raises(np.linalg.LinAlgError) as info:
            run_trajectory(sys.initial_state(0), sys, cfg, 0.05, 5)
        assert isinstance(info.value, StageLinAlgError)
        assert (info.value.step, info.value.stage) == (3, 1)
        assert info.value.reason == "Singular matrix"
        assert str(info.value) == "numerical error at step 3 stage 1: Singular matrix"

    def test_failures_keep_origin_and_pickle(self, monkeypatch):
        # The loops set step and stage in place: the exception keeps the
        # traceback of the raising solver, or numpy's LinAlgError as its
        # context, and comes back whole from another process.
        sys = RigidBody()
        with pytest.raises(NonConvergenceError) as overflow:
            run_trajectory(sys.initial_state(0), sys, _cfg(), 1e300, 2)
        assert traceback.extract_tb(overflow.value.__traceback__)[-1].name == "_fixed_point"
        _singular_at_step_3_stage_1(monkeypatch)
        with pytest.raises(StageLinAlgError) as singular:
            run_trajectory(sys.initial_state(0), sys, _cfg(tableau=builtin("yoshida4")), 0.05, 5)
        assert type(singular.value.__context__) is np.linalg.LinAlgError
        for exc, fields in ((overflow.value, ("iters", "residual")), (singular.value, ("reason",))):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc) and str(back) == str(exc)
            for name in ("step", "stage") + fields:
                assert getattr(back, name) == getattr(exc, name)
        assert (overflow.value.step, overflow.value.stage) == (0, 0)
        assert str(singular.value) == "numerical error at step 3 stage 1: Singular matrix"

    @pytest.mark.parametrize(
        "tableau, h, n_steps",
        [("midpoint", 0.22, 300), ("sdirk2", 0.2, 300), ("yoshida4", 0.1, 200)],
    )
    def test_toda_converges_at_large_steps(self, tableau, h, n_steps):
        # Plain Picard iteration needs more than 200 sweeps for the first
        # midpoint stage here, and 31 and 50 for the first sdirk2 and
        # yoshida4 stages; the mixed solver settles every stage of these
        # runs, and the conjugation update keeps the spectrum.
        sys = TodaExtended(4)
        mu0 = sys.initial_state(0)
        traj = run_trajectory(mu0, sys, _cfg(tableau=builtin(tableau)), h, n_steps)
        assert len(traj) == n_steps + 1
        assert np.max(np.abs(spectrum(traj[-1][0]) - spectrum(mu0))) < 1e-11


class TestCotangentForm:
    def test_zero_flow_is_identity(self):
        state = cotangent_lift(random_algebra_element(orthogonal_structure(3), 2))
        cfg = _cfg()
        new, stages = cotangent_sdirk_step(state, _ZeroFlow(), cfg, 0.1)
        assert np.array_equal(new.g, state.g)
        assert np.array_equal(new.p, state.p)
        assert stages[0].iters <= 2

    def test_right_variant_rejected(self):
        state = cotangent_lift(RigidBody().initial_state(0))
        cfg = _cfg(variant="right")
        with pytest.raises(ValueError, match="left"):
            cotangent_sdirk_step(state, RigidBody(), cfg, 0.1)

    def test_lift_and_momentum_round_trip(self):
        mu = ZeitlinSphere(N=5).initial_state(1)
        state = cotangent_lift(mu)
        assert np.allclose(momentum_map(state), mu, atol=0)
        assert state.g.dtype == mu.dtype

    @pytest.mark.parametrize("tableau", ["midpoint", "yoshida4"])
    def test_reduces_to_reduced_stepper(self, tableau):
        # Stepping on the bundle and reducing through g^dagger p tracks
        # stepping the reduced variable directly, also where the
        # increment iteration runs long enough to mix (Toda).
        tab = builtin(tableau)
        cfg = _cfg(tableau=tab, update_form="dcay")
        for sys, seed in ((RigidBody(), 4), (ZeitlinSphere(N=5), 2), (TodaExtended(4), 1)):
            mu = sys.initial_state(seed)
            state = cotangent_lift(mu)
            sweeps = []
            for _ in range(20):
                state, stages = cotangent_sdirk_step(state, sys, cfg, 0.02)
                mu, _ = isospectral_sdirk_step(mu, sys, cfg, 0.02)
                sweeps += [st.iters for st in stages]
            assert np.linalg.norm(momentum_map(state) - mu) < 1e-11
        assert max(sweeps) > _PLAIN_SWEEPS + 1

    def test_one_B_evaluation_per_sweep(self):
        # Toda's increment iterations run long enough to mix.
        cfg = _cfg()
        sweeps = []
        for sys in (RigidBody(), TodaExtended(4)):
            spy = _CountingB(sys)
            state = cotangent_lift(sys.initial_state(1))
            for _ in range(5):
                before = spy.calls
                state, stages = cotangent_sdirk_step(state, spy, cfg, 0.1)
                assert spy.calls - before == stages[0].iters
                sweeps.append(stages[0].iters)
        assert max(sweeps) > _PLAIN_SWEEPS + 1

    @pytest.mark.parametrize("fault", ["linalg", "nan"])
    def test_stage_failure_carries_index(self, fault):
        # The first B call of the third yoshida4 substage fails.
        sys = RigidBody()
        cfg = _cfg(tableau=builtin("yoshida4"))
        state = cotangent_lift(sys.initial_state(3))
        _, stages = cotangent_sdirk_step(state, sys, cfg, 0.05)
        spy = _FaultAtCall(sys, stages[0].iters + stages[1].iters + 1, fault)
        if fault == "linalg":
            with pytest.raises(StageLinAlgError) as info:
                cotangent_sdirk_step(state, spy, cfg, 0.05)
            assert str(info.value) == "numerical error stage 2: Singular matrix"
        else:
            with pytest.raises(NonConvergenceError) as info:
                cotangent_sdirk_step(state, spy, cfg, 0.05)
            assert info.value.iters == 1
            assert "stage 2" in str(info.value)
        assert info.value.stage == 2

    def test_stage_pair_is_half_point_mean(self):
        sys = RigidBody()
        cfg = _cfg()
        state = cotangent_lift(sys.initial_state(5))
        new, stages = cotangent_sdirk_step(state, sys, cfg, 0.1)
        st = stages[0]
        assert np.allclose(st.g_stage, (state.g + new.g) / 2.0, atol=1e-15)
        assert np.allclose(st.p_stage, (state.p + new.p) / 2.0, atol=1e-15)

    def test_group_factor_stays_in_group(self):
        # The increment form is an implicit midpoint step, which
        # conserves the quadratic group constraint to solver tolerance.
        sys = RigidBody()
        cfg = _cfg()
        state = cotangent_lift(sys.initial_state(3))
        for _ in range(10):
            state, _ = cotangent_sdirk_step(state, sys, cfg, 0.05)
        group_res, _ = membership_residuals(state.g, sys.context)
        assert group_res < 1e-10


class TestGawlikBaseline:
    def test_zero_flow_fixed(self):
        mu = random_algebra_element(orthogonal_structure(4), 1)
        out, stages = gawlik_step(mu, 0.1, _ZeroFlow(), _cfg())
        assert np.array_equal(out, mu)
        assert len(stages) == 1
        assert stages[0].iters == 1 and stages[0].residual == 0.0
        assert stages[0].mu_half is out

    def test_default_config(self):
        sys = RigidBody()
        mu = sys.initial_state(2)
        assert np.array_equal(gawlik_step(mu, 0.05, sys)[0], gawlik_step(mu, 0.05, sys, _cfg())[0])

    def test_agrees_with_midpoint_to_second_order(self):
        # Both schemes are second order; their gap per step is O(h^3).
        sys = RigidBody()
        mu = sys.initial_state(6)
        cfg = _cfg()

        def gap(h):
            iso, _ = isospectral_sdirk_step(mu, sys, cfg, h)
            return np.linalg.norm(gawlik_step(mu, h, sys, cfg)[0] - iso)

        ratio = gap(0.1) / gap(0.05)
        assert 6.0 < ratio < 10.0

    def test_eigenvalues_drift(self):
        # The update is not a similarity, so spectra move at O(h^3) per
        # step while the isospectral stepper holds them to roundoff.
        sys = RigidBody()
        mu0 = sys.initial_state(0)
        spec0 = spectrum(mu0)
        cfg = _cfg()
        mu_gaw = mu_iso = mu0
        for _ in range(100):
            mu_gaw, _ = gawlik_step(mu_gaw, 0.1, sys, cfg)
            mu_iso, _ = isospectral_sdirk_step(mu_iso, sys, cfg, 0.1)
        gaw_drift = np.max(np.abs(spectrum(mu_gaw) - spec0))
        iso_drift = np.max(np.abs(spectrum(mu_iso) - spec0))
        assert gaw_drift > 1e-8
        assert iso_drift < 1e-13
        assert gaw_drift > 1e4 * iso_drift

    @pytest.mark.parametrize(
        "sys, h", [(RigidBody(), 0.05), (TodaExtended(4), 0.05), (ZeitlinSphere(N=9), 0.01)],
        ids=["rigidbody", "toda", "zeitlin"],
    )
    def test_updates_the_midpoint_stage_points(self, sys, h):
        # The paper's remark: the Cayley half-step update is the dcay-form
        # midpoint method read as an update of its stage points, bit for bit.
        cfg = _cfg(update_form="dcay")
        mu, stages = isospectral_sdirk_step(sys.initial_state(3), sys, cfg, h)
        m = stages[0].mu_stage
        for _ in range(50):
            mu, stages = isospectral_sdirk_step(mu, sys, cfg, h)
            m, gaw = gawlik_step(m, h, sys, cfg)
            assert np.array_equal(m, stages[0].mu_stage)
            assert gaw[0].iters == stages[0].iters


class TestClassicalRk4:
    def test_zero_flow_fixed(self):
        mu = random_algebra_element(orthogonal_structure(3), 4)
        assert np.array_equal(classical_rk4_step(mu, 0.1, _ZeroFlow()), mu)

    def test_linear_flow_matches_quartic_taylor(self):
        # With constant B the field is linear, so RK4 reproduces the
        # degree-4 Taylor polynomial of the exact conjugation flow.
        ctx = orthogonal_structure(4)
        b0 = random_algebra_element(ctx, 10)
        mu = random_algebra_element(ctx, 11)
        sys = _ConstantFlow(b0)
        h = 0.3

        term = mu
        taylor = mu.copy()
        for k in range(1, 5):
            term = commutator(b0, term) * (h / k)
            taylor += term
        got = classical_rk4_step(mu, h, sys)
        assert np.allclose(got, taylor, atol=1e-14)

    def test_linear_flow_error_is_fifth_order(self):
        ctx = orthogonal_structure(4)
        b0 = random_algebra_element(ctx, 12)
        mu = random_algebra_element(ctx, 13)
        sys = _ConstantFlow(b0)

        def err(h):
            q = np.asarray(
                np.eye(4)
                + sum(np.linalg.matrix_power(h * b0, k) / math.factorial(k) for k in range(1, 20))
            )
            exact = q @ mu @ np.linalg.inv(q)
            return np.linalg.norm(classical_rk4_step(mu, h, sys) - exact)

        ratio = err(0.2) / err(0.1)
        assert 24.0 < ratio < 40.0


_STEPPERS = {
    "isospectral": lambda mu, sys, h: isospectral_sdirk_step(mu, sys, _cfg(), h),
    "gawlik": lambda mu, sys, h: gawlik_step(mu, h, sys),
    "rk4": lambda mu, sys, h: classical_rk4_step(mu, h, sys),
}


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("method", sorted(_STEPPERS))
def test_step_size_must_be_finite_and_nonzero(method, h):
    # Rejected before any stage: not a solver failure (whose advice is to
    # halve h), and not an all-NaN RK4 state.
    sys = RigidBody()
    with pytest.raises(ValueError, match=r"^step size must be finite and nonzero, got") as info:
        _STEPPERS[method](sys.initial_state(0), sys, h)
    assert type(info.value) is ValueError


def test_toda_lax_form_held_by_stepper():
    # Symmetry of the Lax matrix is preserved to solver tolerance each
    # step (the generator is skew exactly on the symmetric slice).
    sys = TodaExtended(n=4)
    mu = sys.initial_state(0)
    cfg = _cfg()
    for _ in range(50):
        mu, _ = isospectral_sdirk_step(mu, sys, cfg, 0.05)
        assert sys.state_residual(mu) < 1e-11


def test_one_sweep_loop_call_per_stage(monkeypatch):
    # Every implicit stage, reduced, baseline or cotangent, is one run
    # of the shared sweep loop.
    import isork.integrator as integrator

    calls = []
    fixed_point = integrator._fixed_point

    def spy(*args):
        calls.append(args)
        return fixed_point(*args)

    monkeypatch.setattr(integrator, "_fixed_point", spy)
    sys = RigidBody()
    mu = sys.initial_state(2)
    cfg = _cfg(tableau=builtin("yoshida4"))
    _, stages = isospectral_sdirk_step(mu, sys, cfg, 0.05)
    assert len(calls) == len(stages) == 3
    calls.clear()
    _, stages = gawlik_step(mu, 0.05, sys, cfg)
    assert len(calls) == len(stages) == 1
    calls.clear()
    _, stages = cotangent_sdirk_step(cotangent_lift(mu), sys, cfg, 0.05)
    assert len(calls) == len(stages) == 3


def _operand(rng, n, dtype, order):
    """A random n x n operand, C-ordered or as the transpose of a C-ordered array (F-ordered)."""
    x = rng.standard_normal((n, n))
    if dtype == complex:
        x = x + 1j * rng.standard_normal((n, n))
    return x if order == "C" else np.ascontiguousarray(x).T


@pytest.mark.parametrize("n, dtype", [(3, float), (4, float), (33, complex)], ids=["real3", "real4", "complex33"])
@pytest.mark.parametrize("left, right", [("C", "C"), ("C", "F"), ("F", "C"), ("F", "F")])
class TestProductsMatchMatmul:
    # The stepping path forms its 2-D products with ndarray.dot, which
    # reaches the same BLAS gemm as the @ operator at less dispatch cost.
    # Each case recomputes the library's expression with @, in the same
    # order, and requires the same bits.

    def test_rigid_body_gradient(self, n, dtype, left, right):
        rng = np.random.default_rng(n)
        iinv, w = _operand(rng, n, dtype, left), _operand(rng, n, dtype, right)
        body = RigidBody()
        body._iinv = iinv  # the product pattern of any size; RigidBody itself is 3 x 3
        assert np.array_equal(body.grad_hamiltonian(w), (iinv @ w + w @ iinv) / 2.0)

    def test_cayley_conjugate_and_dcay_inv(self, n, dtype, left, right):
        rng = np.random.default_rng(n)
        xi, x = 0.1 * _operand(rng, n, dtype, left), _operand(rng, n, dtype, right)
        lo, hi = _half_factors(xi)
        ref = _solve_right(np.linalg.solve(lo, hi @ x), hi) @ lo
        assert np.array_equal(cayley_conjugate(xi, x), ref)
        assert np.array_equal(dcay_inv(xi, x), lo @ x @ hi)

    def test_commutator_and_momentum_map(self, n, dtype, left, right):
        rng = np.random.default_rng(n)
        a, b = _operand(rng, n, dtype, left), _operand(rng, n, dtype, right)
        assert np.array_equal(commutator(a, b), a @ b - b @ a)
        assert np.array_equal(momentum_map(CotangentState(a, b)), a.conj().T @ b)

    def test_mixer_gram_and_update(self, n, dtype, left, right):
        # Every fitting call, with the ring buffer filling and wrapping.
        rng = np.random.default_rng(n)
        mix = _AndersonMixer()
        mix(_operand(rng, n, dtype, left), _operand(rng, n, dtype, right))
        for stored in range(1, 2 * _MIXING_DEPTH + 1):
            gx = _operand(rng, n, dtype, right)
            out = mix(_operand(rng, n, dtype, left), gx)
            if stored % _FIT_PERIOD:
                continue
            m = min(stored, _MIXING_DEPTH)
            rows = mix._f[: m + 1]
            gram = rows.conj() @ rows.T
            gamma = np.linalg.solve(gram[1:, 1:], gram[1:, 0])
            assert out is not gx
            assert np.array_equal(out, (gx.ravel() - gamma @ mix._dg[:m]).reshape(gx.shape))
