"""Stage solves, macro steps, cotangent form, and reference baselines."""

import gc
import math
import pickle
import threading
import traceback
import types
import weakref
from dataclasses import dataclass
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from isork.diagnostics import run_recorded
from isork.integrator import (
    _CHORD_MAX_N,
    _FIT_PERIOD,
    _MIXING_DEPTH,
    _PLAIN_SWEEPS,
    _AndersonMixer,
    _unit_images,
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
    QuadraticStructure,
    cayley_conjugate,
    commutator,
    dcay,
    dcay_inv,
    membership_residuals,
    orthogonal_structure,
    random_algebra_element,
    special_unitary_structure,
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


def _spy_on(monkeypatch, owner, name):
    """Record the positional arguments of every call of owner.name; returns the list."""
    calls, fn = [], getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _stage_defect(mu, mu_prev, a, system):
    """(I - a B(mu)) mu (I + a B(mu)) - mu_prev, in the library's arithmetic."""
    b = system.B(mu)
    bmu = b @ mu
    return mu - a * (bmu - mu @ b) - (a * a) * (bmu @ b) - mu_prev


def _jacobian_reference(mu, mu_prev, a, system, t=1e-3):
    """The stage defect's Jacobian at mu in row-major vec, by finite differences.

    Column k is (4 cd(t) - cd(2t)) / 3, cd(t) being the central difference
    of step t along the unit matrix E_k.  The defect of a linear B is cubic
    in t, so the extrapolation cancels the t^2 term and leaves rounding only.
    """
    n = len(mu)

    def cd(e, t):
        step = t * e
        return (_stage_defect(mu + step, mu_prev, a, system) - _stage_defect(mu - step, mu_prev, a, system)) / (2 * t)

    units = np.eye(n * n).reshape(n * n, n, n)
    return np.array([((4 * cd(e, t) - cd(e, 2 * t)) / 3).ravel() for e in units]).T


def _picard_stage(mu_prev, h_i, system, tol, max_iters=10_000, relax=1.0):
    """Plain Picard stage solve, the reference for the mixed solver.

    Same defect arithmetic and stopping test as the library; returns
    (stage matrix, sweeps).  relax < 1 takes the damped step
    mu - relax * defect (relax = 1 is the plain step, bit for bit).
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
            mu = mu - relax * defect
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
            {"solver_max_iters": 2.5},
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
        # and the mixed sweeps of a slowly contracting Toda stage above the
        # chord size bound cost one evaluation each like the plain ones.  A
        # chord stage adds the n^2 evaluations B(E_k) of its one Jacobian
        # (16 at n = 4), whose B(mu) is the gating sweep's.
        for form in ("conjugation", "dcay"):
            spy = _CountingB(RigidBody())
            st = solve_stage(spy.system.initial_state(42), 0.01, spy, _cfg(update_form=form))
            assert spy.calls == st.iters > 1
            spy = _CountingB(TodaExtended(_CHORD_MAX_N + 1))
            st = solve_stage(spy.system.initial_state(0), 0.1, spy, _cfg(update_form=form))
            assert spy.calls == st.iters > _PLAIN_SWEEPS + _FIT_PERIOD
            spy = _CountingB(TodaExtended(4))
            st = solve_stage(spy.system.initial_state(0), 0.1, spy, _cfg(update_form=form))
            assert spy.calls == st.iters + 16
            assert st.iters > _PLAIN_SWEEPS + 1

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
        # A singular fit (repeated rows) and an overflowing one (a huge
        # row) both fall back to the map value G(x).  The calls before
        # the call under test fill the rings without fitting; the call
        # under test is a fitting one and its solve fails.
        outcomes = []
        solve = np.linalg.solve

        def spy(*args):
            try:
                y = solve(*args)
            except np.linalg.LinAlgError:
                outcomes.append("singular")
                raise
            outcomes.append("finite" if np.isfinite(y).all() else "overflow")
            return y

        monkeypatch.setattr(np.linalg, "solve", spy)
        x = np.zeros((2, 2))
        ones = [np.ones((2, 2)) for _ in range(_FIT_PERIOD + 1)]
        rng = np.random.default_rng(0)
        huge = [rng.standard_normal((2, 2)) for _ in range(_FIT_PERIOD)] + [np.full((2, 2), 1e200)]
        for pairs, outcome in ((ones, "singular"), (huge, "overflow")):
            mix = _AndersonMixer()
            outcomes.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                for gx in pairs[:-1]:
                    assert mix(x, gx) is gx
                assert outcomes == []
                assert mix(x, pairs[-1]) is pairs[-1]
            assert outcomes == [outcome]

    @pytest.mark.parametrize("n, dtype", [(3, float), (4, float), (33, complex)], ids=["real3", "real4", "complex33"])
    def test_ring_fit_is_the_difference_form_fit(self, n, dtype):
        # Type II Anderson in difference form over the last _MIXING_DEPTH
        # differences: G(x_c) - dG gamma, gamma the least-squares solution
        # of dF gamma = f_c.  Past 2 * _MIXING_DEPTH calls the rings have
        # filled and wrapped, so their rows are out of call order.
        rng = np.random.default_rng(n)
        mix, fs, gs = _AndersonMixer(), [], []
        for c in range(2 * _MIXING_DEPTH + 3):
            x, gx = _operand(rng, n, dtype, "C"), _operand(rng, n, dtype, "C")
            fs.append((gx - x).ravel())
            gs.append(gx.ravel())
            out = mix(x, gx)
            if not c or c % _FIT_PERIOD:
                assert out is gx
                continue
            m = min(c, _MIXING_DEPTH)
            df, dg = np.diff(fs[-m - 1 :], axis=0), np.diff(gs[-m - 1 :], axis=0)
            gamma = np.linalg.lstsq(df.T, fs[-1], rcond=None)[0]
            ref = gs[-1] - dg.T @ gamma
            assert np.linalg.norm(out.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_one_least_squares_solve_per_fitting_sweep(self, monkeypatch):
        # Stages that settle within the plain sweeps build neither a mixer
        # nor a Jacobian.  A slowly contracting small real stage (Toda
        # n = 4) inverts one Jacobian and builds no mixer.  Above the chord
        # size bound the stage mixes: every sweep after the plain ones but
        # the converged one calls the mixer, and call c (from 0) fits, with
        # one solve, when c is a positive multiple of _FIT_PERIOD.  The
        # dcay update makes no solve of its own, so every solve counted
        # here is a fit.
        per_call, call = [], _AndersonMixer.__call__

        def spy_call(mixer, x, gx):
            before = len(solves)
            out = call(mixer, x, gx)
            per_call.append(len(solves) - before)
            return out

        # Built before the spies: Zeitlin's set-up inverts matrices of its own.
        fast = ((RigidBody(), 42, 0.01), (ZeitlinSphere(N=9), 1, 0.005))
        solves = _spy_on(monkeypatch, np.linalg, "solve")
        inverses = _spy_on(monkeypatch, np.linalg, "inv")
        built = _spy_on(monkeypatch, _AndersonMixer, "__init__")
        monkeypatch.setattr(_AndersonMixer, "__call__", spy_call)
        cfg = _cfg(update_form="dcay")
        for sys, seed, h in fast:
            st = solve_stage(sys.initial_state(seed), h, sys, cfg)
            assert st.iters <= _PLAIN_SWEEPS
        assert built == [] and solves == [] and inverses == []
        sys = TodaExtended(4)
        st = solve_stage(sys.initial_state(0), 0.1, sys, cfg)
        assert st.iters > _PLAIN_SWEEPS + _FIT_PERIOD
        assert len(inverses) == 1 and inverses[0][0].shape == (16, 16)
        assert built == [] and solves == []
        inverses.clear()
        sys = TodaExtended(_CHORD_MAX_N + 1)
        st = solve_stage(sys.initial_state(0), 0.1, sys, cfg)
        assert inverses == [] and len(built) == 1
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


class _QuadraticToda:
    """Toda n = 4's B plus a quadratic term, so B(E_k) no longer spans its derivative."""

    toda = TodaExtended(4)

    def B(self, w):
        return self.toda.B(w) + 0.5 * self.toda.B(w * w)


class TestChordPhase:
    # A small real stage whose plain sweeps contract slowly takes chord
    # steps with one Jacobian of the stage defect, and mixes only if a
    # chord step stops cutting the defect fourfold.

    @pytest.mark.parametrize("h, chords", [(0.1, 3), (0.14, 2)])
    def test_stays_on_the_near_branch(self, h, chords, monkeypatch):
        # The stage equation is quadratic in mu, so it has far solutions
        # too.  Each yoshida4 substage lands within 10 tolerances of the
        # Picard reference.  Plain Picard diverges on the middle substage
        # at h = 0.14, so the reference takes half steps mu - defect / 2,
        # which converge on every substage here.  That substage's plain
        # sweeps contract too slowly for the gate, so it mixes.
        inverses = _spy_on(monkeypatch, np.linalg, "inv")
        sys = TodaExtended(4)
        cfg = _cfg(tableau=builtin("yoshida4"))
        mu = sys.initial_state(0)
        for w in cfg.tableau.b:
            st = solve_stage(mu, h * w, sys, cfg)
            ref, _ = _picard_stage(mu, h * w, sys, cfg.solver_tol, relax=0.5)
            assert np.linalg.norm(st.mu_stage - ref) <= 10 * cfg.solver_tol * (1.0 + np.linalg.norm(mu))
            mu = st.mu_half
        assert len(inverses) == chords

    def test_nonlinear_B_converges_through_the_fallback(self, monkeypatch):
        # The Jacobian built from B(E_k) misses the quadratic term, so a
        # chord step soon cuts the defect less than fourfold; the solve
        # goes back one iterate and mixes to the tolerance.
        built = _spy_on(monkeypatch, _AndersonMixer, "__init__")
        spy = _CountingB(_QuadraticToda())
        mu = spy.system.toda.initial_state(0)
        st = solve_stage(mu, 0.1, spy, _cfg())
        assert len(built) == 1
        assert spy.calls == st.iters + 16
        defect = _stage_defect(st.mu_stage, mu, 0.05, spy.system)
        assert np.linalg.norm(defect) <= 1e-13 * (1.0 + np.linalg.norm(mu))

    @pytest.mark.parametrize(
        "sys, tableau, h, built",
        [
            (TodaExtended(4), "yoshida4", 0.1, 3),
            (TodaExtended(4), "yoshida4", 0.14, 2),
            (RigidBody(), "midpoint", 1.0, 1),
        ],
        ids=["toda-yoshida4-0.1", "toda-yoshida4-0.14", "rigid-midpoint-1"],
    )
    def test_jacobian_is_the_defect_derivative(self, sys, tableau, h, built, monkeypatch):
        # The inverted matrix is the stage defect's Jacobian at the gating
        # sweep's iterate, the stage's _PLAIN_SWEEPS-th B argument, checked
        # column by column against finite differences.  Only the first
        # chord stage probes the unit matrices, after that argument.
        inverses = _spy_on(monkeypatch, np.linalg, "inv")
        args = _spy_on(monkeypatch, sys, "B")
        cfg = _cfg(tableau=builtin(tableau))
        mu = sys.initial_state(0)
        checked = 0
        for w in cfg.tableau.b:
            args.clear()
            inverses.clear()
            st = solve_stage(mu, h * w, sys, cfg)
            if inverses:
                ((jac,),) = inverses
                ref = _jacobian_reference(args[_PLAIN_SWEEPS - 1][0], mu, h * w / 2.0, sys)
                assert np.max(np.abs(jac - ref)) <= 1e-10 * np.max(np.abs(ref))
                checked += 1
            mu = st.mu_half
        assert checked == built

    def test_singular_jacobian_mixes_as_without_chord_steps(self, monkeypatch):
        # A chord stage whose Jacobian inverse raises LinAlgError takes no
        # chord step: it mixes from the sixth sweep on, bit for bit like
        # the same stage with the chord phase switched off.
        sys = TodaExtended(4)
        mu = sys.initial_state(0)
        chord = solve_stage(mu, 0.1, sys, _cfg())
        attempts = []

        def singular(m):
            attempts.append(m)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        st = solve_stage(mu, 0.1, sys, _cfg())
        assert len(attempts) == 1
        monkeypatch.setattr("isork.integrator._CHORD_MAX_N", 0)
        ref = solve_stage(mu, 0.1, sys, _cfg())
        assert len(attempts) == 1
        for name in ("mu_half", "mu_stage", "iters"):
            assert np.array_equal(getattr(st, name), getattr(ref, name))
        assert st.iters > chord.iters

    @pytest.mark.parametrize(
        "sys, h",
        [(ZeitlinSphere(N=4), 0.2), (TodaExtended(_CHORD_MAX_N + 1), 0.1)],
        ids=["complex", "above-size-bound"],
    )
    def test_only_small_real_stages_build_a_jacobian(self, sys, h, monkeypatch):
        # Both stages mix, so they are slow enough for the gate, but one is
        # complex and the other larger than the bound.
        inverses = _spy_on(monkeypatch, np.linalg, "inv")
        built = _spy_on(monkeypatch, _AndersonMixer, "__init__")
        spy = _CountingB(sys)
        st = solve_stage(sys.initial_state(0), h, spy, _cfg(update_form="dcay"))
        assert st.iters > _PLAIN_SWEEPS + _FIT_PERIOD
        assert len(built) == 1 and inverses == []
        assert spy.calls == st.iters

    @pytest.mark.parametrize(
        "sys, mu0, tableau, h, n_steps",
        [
            (TodaExtended(4), TodaExtended(4).initial_state(0), "suzuki4", 0.4, 150),
            (TodaExtended(4), TodaExtended(4).initial_state(0), "midpoint", 0.25, 150),
            (RigidBody(), RigidBody().initial_state(42, scale=16.0), "yoshida4", 0.5, 50),
            (RigidBody(), RigidBody().initial_state(42, scale=4.0), "yoshida4", 2.0, 50),
        ],
        ids=["toda-suzuki4-0.4", "toda-midpoint-0.25", "rigid16-yoshida4-0.5", "rigid4-yoshida4-2"],
    )
    def test_converges_where_other_chord_variants_failed(self, sys, mu0, tableau, h, n_steps):
        # The mixing-only solver converges these runs, and variants of the
        # chord phase fail some of them: without the contraction gate,
        # suzuki4 at h = 0.4 and the scale-4 rigid body; with chord steps
        # started at the first fitting sweep, or without going back one
        # iterate on a step that does not pay, suzuki4 at h = 0.4.  The
        # conjugation update keeps the spectrum.
        traj = run_trajectory(mu0, sys, _cfg(tableau=builtin(tableau)), h, n_steps)
        assert len(traj) == n_steps + 1
        spec0 = spectrum(mu0)
        assert np.max(np.abs(spectrum(traj[-1][0]) - spec0)) < 1e-13 * (1.0 + np.max(np.abs(spec0)))


@dataclass
class _DataToda(TodaExtended):
    """Toda n = 4 as a dataclass: eq=True clears __hash__, so it cannot key a dict."""

    size: int = 4
    calls: int = 0

    def __post_init__(self):
        super().__init__(self.size)

    def B(self, w):
        self.calls += 1
        return super().B(w)


class _SlotsToda:
    """Toda n = 4's B on a __slots__ class, which cannot be weakly referenced."""

    __slots__ = ("toda", "calls")

    def __init__(self):
        self.toda, self.calls = TodaExtended(4), 0

    def B(self, w):
        self.calls += 1
        return self.toda.B(w)


@dataclass
class _MaskB:
    """Toda n = 4's B as a callable dataclass: eq=True clears __hash__."""

    mask: np.ndarray
    calls: int = 0

    def __call__(self, w):
        self.calls += 1
        return w.T * self.mask


class _CallableToda:
    """A duck-typed Toda n = 4 whose B is an unhashable callable, not a method."""

    def __init__(self):
        self.B = _MaskB(TodaExtended(4)._b_mask)

    @property
    def calls(self):
        return self.B.calls


def _doubled_toda_B(system, w):
    return 2.0 * (w.T * system._b_mask)


class TestUnitImages:
    # The chord phase keeps the images B(E_k) of the n^2 unit matrices of
    # the last B and size in one slot, matched by identity, and rebuilds
    # them for any other B, a B swapped on the class or the instance
    # included.  The Toda n = 4 stage at h = 0.1 from initial_state(0)
    # takes chord steps.

    def test_second_chord_stage_makes_one_call_per_sweep(self):
        spy = _CountingB(TodaExtended(4))
        mu = spy.system.initial_state(0)
        first = solve_stage(mu, 0.1, spy, _cfg())
        assert spy.calls == first.iters + 16
        spy.calls = 0
        second = solve_stage(mu, 0.1, spy, _cfg())
        assert spy.calls == second.iters
        for name in ("mu_half", "mu_stage", "iters"):
            assert np.array_equal(getattr(second, name), getattr(first, name))

    def test_only_the_last_map_is_kept(self):
        # The slot holds the last chord stage's system until a chord stage
        # on another system replaces it; then the first is collected and
        # the second system's next stage makes one B call per sweep.
        first, second = TodaExtended(4), _CountingB(TodaExtended(4))
        mu = first.initial_state(0)
        solve_stage(mu, 0.1, first, _cfg())
        dropped = weakref.ref(first)
        del first
        gc.collect()
        assert dropped() is not None
        st = solve_stage(mu, 0.1, second, _cfg())
        assert second.calls == st.iters + 16
        gc.collect()
        assert dropped() is None
        second.calls = 0
        st = solve_stage(mu, 0.1, second, _cfg())
        assert second.calls == st.iters

    @pytest.mark.parametrize(
        "make", [_DataToda, _SlotsToda, _CallableToda], ids=["unhashable-dataclass", "slots", "unhashable-callable"]
    )
    def test_any_B_builds_its_images_once(self, make, monkeypatch):
        # A system that cannot be hashed or weakly referenced, or whose B is
        # an unhashable callable, builds the images at its first chord stage
        # only, and its records are those of a plain TodaExtended(4).
        inverses = _spy_on(monkeypatch, np.linalg, "inv")
        sys, cfg = make(), _cfg(tableau=builtin("yoshida4"))
        mu0 = TodaExtended(4).initial_state(0)
        traj = run_trajectory(mu0, sys, cfg, 0.1, 3)
        sweeps = sum(st.iters for _, stages in traj for st in stages)
        assert len(inverses) > 1 and sys.calls == sweeps + 16
        ref = run_trajectory(mu0, TodaExtended(4), cfg, 0.1, 3)
        for (mu, stages), (mu_ref, stages_ref) in zip(traj, ref, strict=True):
            assert np.array_equal(mu, mu_ref)
            for st, st_ref in zip(stages, stages_ref, strict=True):
                for name in ("mu_half", "mu_stage", "iters", "residual"):
                    assert np.array_equal(getattr(st, name), getattr(st_ref, name))

    def test_images_are_read_only_and_of_the_size_asked(self):
        # One B map asked for two sizes in turn builds each size's images.
        for n in (4, 3, 3):
            units, bk = _unit_images(np.transpose, n)
            assert np.array_equal(units, np.eye(n * n).reshape(n * n, n, n))
            assert np.array_equal(bk, units.transpose(0, 2, 1))
            for stack in (units, bk):
                with pytest.raises(ValueError, match="read-only"):
                    stack[0, 0, 0] = 1.0

    def test_alternating_systems_match_each_alone(self):
        # Two B maps of one size used in turn rebuild their images at each
        # switch and solve every stage as each does alone, bit for bit.
        mu = TodaExtended(4).initial_state(0)
        plain, doubled = _CountingB(TodaExtended(4)), _CountingB(TodaExtended(4))
        doubled.system.B = types.MethodType(_doubled_toda_B, doubled.system)
        cases = [(plain, 0.1), (doubled, 0.05)]
        alone = [[solve_stage(mu, h, spy, _cfg()) for _ in range(3)] for spy, h in cases]
        for spy, _ in cases:
            spy.calls = 0
        turns = [[], []]
        for _ in range(3):
            for turn, (spy, h) in zip(turns, cases):
                before = spy.calls
                turn.append(solve_stage(mu, h, spy, _cfg()))
                assert spy.calls - before == turn[-1].iters + 16
        for turn, ref in zip(turns, alone, strict=True):
            for st, st_ref in zip(turn, ref, strict=True):
                for name in ("mu_half", "mu_stage", "iters", "residual"):
                    assert np.array_equal(getattr(st, name), getattr(st_ref, name))

    def test_raising_probe_stores_nothing(self):
        # B raises on its third unit-matrix probe: the error propagates and
        # the next chord stage probes all 16 unit matrices again.
        spy = _FaultAtCall(TodaExtended(4), _PLAIN_SWEEPS + 3, "linalg")
        mu = spy.system.initial_state(0)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve_stage(mu, 0.1, spy, _cfg())
        assert spy.calls == spy.at
        st = solve_stage(mu, 0.1, spy, _cfg())
        assert spy.calls - spy.at == st.iters + 16
        assert np.array_equal(st.mu_half, solve_stage(mu, 0.1, TodaExtended(4), _cfg()).mu_half)

    @pytest.mark.parametrize("where", ["instance", "class"])
    def test_swapped_B_gets_its_own_images(self, where, monkeypatch):
        # A B swapped on the instance or the class after a chord stage keeps
        # the owner but not the function, so it probes the unit matrices
        # again and solves the stage of the swapped flow bit for bit.
        sys = TodaExtended(4)
        mu = sys.initial_state(0)
        solve_stage(mu, 0.1, sys, _cfg())
        calls = []

        def doubled(system, w):
            calls.append(w)
            return _doubled_toda_B(system, w)

        if where == "instance":
            sys.B = types.MethodType(doubled, sys)
        else:
            monkeypatch.setattr(TodaExtended, "B", doubled)
        st = solve_stage(mu, 0.05, sys, _cfg())
        assert len(calls) == st.iters + 16
        fresh = TodaExtended(4)
        fresh.B = lambda w: _doubled_toda_B(fresh, w)
        ref = solve_stage(mu, 0.05, fresh, _cfg())
        for name in ("mu_half", "mu_stage", "iters"):
            assert np.array_equal(getattr(st, name), getattr(ref, name))

    def test_concurrent_stages_share_one_system(self):
        # Four threads solve the same chord stage on each of a few fresh
        # systems at once, then each a chord stage of its own system, two
        # of each size and class, so each overwrites the slot under the
        # others.  Every stage equals its serial stage bit for bit,
        # whichever thread builds (or builds again) the images.
        mu = TodaExtended(4).initial_state(0)
        ref = solve_stage(mu, 0.1, TodaExtended(4), _cfg())
        systems = [TodaExtended(4) for _ in range(8)]
        doubled = TodaExtended(4)
        doubled.B = types.MethodType(_doubled_toda_B, doubled)
        bodies = [RigidBody((1.0, 2.0, 3.0)), RigidBody((1.0, 5.0, 9.0))]
        cases = [(TodaExtended(4), 0.15), (doubled, 0.05)] + [(body, 1.0) for body in bodies]
        own_refs = [solve_stage(system.initial_state(0), h, system, _cfg()) for system, h in cases]
        barrier = threading.Barrier(4, timeout=60)
        shared, own = [], []

        def work(i):
            for system in systems:
                barrier.wait()
                shared.append(solve_stage(mu, 0.1, system, _cfg()))
            system, h = cases[i]
            for _ in range(8):
                barrier.wait()
                own.append((i, solve_stage(system.initial_state(0), h, system, _cfg())))

        interval = getswitchinterval()
        setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(shared) == len(own) == 32
        for st in shared:
            assert np.array_equal(st.mu_half, ref.mu_half) and st.iters == ref.iters
        for i, st in own:
            for name in ("mu_half", "mu_stage", "iters", "residual"):
                assert np.array_equal(getattr(st, name), getattr(own_refs[i], name))


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
        # A fractional count is a ValueError naming it, never a TypeError from range().
        with pytest.raises(ValueError, match=r"^n_steps must be an integer, got 2\.5$") as info:
            run_trajectory(sys.initial_state(0), sys, cfg, 0.05, 2.5)
        assert type(info.value) is ValueError

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
        # The first Toda yoshida4 stage at h = 0.1 needs 11 sweeps; with
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
        [("midpoint", 0.22, 300), ("sdirk2", 0.2, 300), ("yoshida4", 0.1, 200), ("yoshida4", 0.14, 200)],
    )
    def test_toda_converges_at_large_steps(self, tableau, h, n_steps):
        # Plain Picard iteration needs more than 200 sweeps for the first
        # midpoint stage here, and 31 and 50 for the first sdirk2 and
        # yoshida4 stages; chord steps and the mixer settle every stage of
        # these runs, and the conjugation update keeps the spectrum.
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


def test_which_stages_reach_the_anderson_mixer():
    # Every stage of the golden run settles within the plain sweeps, so
    # neither chord steps nor the mixer can move the golden CSV; the
    # toda-yoshida4 benchmark configuration runs every stage past them.
    sys = RigidBody()
    traj = run_trajectory(sys.initial_state(42), sys, _cfg(), 0.01, 100)
    assert max(st.iters for _, stages in traj for st in stages) < _PLAIN_SWEEPS
    sys = TodaExtended(4)
    traj = run_trajectory(sys.initial_state(0), sys, _cfg(tableau=builtin("yoshida4")), 0.1, 5)
    assert min(st.iters for _, stages in traj for st in stages) > _PLAIN_SWEEPS


def _spy_on_updates(monkeypatch):
    """Record (xi, x, unitary, result) of every conjugation update solve_stage makes."""
    import isork.integrator as integrator

    calls = []

    def spy(xi, x, unitary=False):
        calls.append((xi, x, unitary, cayley_conjugate(xi, x, unitary=unitary)))
        return calls[-1][-1]

    monkeypatch.setattr(integrator, "cayley_conjugate", spy)
    return calls


def _u22_flow():
    # u(2, 2): complex, J = diag(1, 1, -1, -1) is not the identity.
    ctx = QuadraticStructure(4, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    flow = _ConstantFlow(random_algebra_element(ctx, 3))
    flow.context = ctx
    return flow, random_algebra_element(ctx, 4)


def _su4_flow_without_context():
    ctx = special_unitary_structure(4)
    return _ConstantFlow(random_algebra_element(ctx, 3)), random_algebra_element(ctx, 4)


class _LeakyZeitlin(ZeitlinSphere):
    """Zeitlin flow whose B adds a fixed Hermitian part, so it leaves su(N)."""

    def __init__(self, N, leak):
        super().__init__(N)
        self.leak = leak

    def B(self, w):
        return super().B(w) + self.leak


class TestUnitaryUpdate:
    # A unitary context (J = I, complex) updates with one solve, C mu C^dagger;
    # every other stage keeps the two-solve update bit for bit.

    @pytest.mark.parametrize("variant", ["left", "right"])
    @pytest.mark.parametrize("N", [5, 9, 17, 33])
    def test_zeitlin_stages_match_two_solves(self, N, variant, monkeypatch):
        calls = _spy_on_updates(monkeypatch)
        sys = ZeitlinSphere(N)
        cfg = _cfg(variant=variant, tableau=builtin("yoshida4"))
        isospectral_sdirk_step(sys.initial_state(N), sys, cfg, 0.0025)
        assert len(calls) == 3
        for xi, x, unitary, got in calls:
            two = cayley_conjugate(xi, x)
            assert unitary
            assert np.linalg.norm(got - two) <= 1e-14 * np.linalg.norm(two)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (RigidBody(), RigidBody().initial_state(1)),
            lambda: (TodaExtended(4), TodaExtended(4).initial_state(1)),
            _su4_flow_without_context,
            _u22_flow,
        ],
        ids=["rigidbody", "toda", "complex-no-context", "complex-J-not-I"],
    )
    def test_other_stages_keep_two_solve_bits(self, make, monkeypatch):
        sys, mu = make()
        calls = _spy_on_updates(monkeypatch)
        isospectral_sdirk_step(mu, sys, _cfg(tableau=builtin("yoshida4")), 0.05)
        assert len(calls) == 3
        for xi, x, unitary, got in calls:
            assert not unitary
            assert np.array_equal(got, cayley_conjugate(xi, x))

    @pytest.mark.parametrize(
        "leak", [1e-6 * np.eye(9), np.diag(np.linspace(-1e-6, 2e-6, 9))], ids=["scalar", "diagonal"]
    )
    def test_B_off_the_algebra_shows_as_spectral_drift(self, leak):
        # The update does not project xi onto su(N), so a Hermitian part of
        # B makes C mu C^dagger a congruence that moves the spectrum.
        sys = _LeakyZeitlin(9, leak)
        records = run_recorded(sys, sys.initial_state(0), _cfg(), 0.0025, 200)
        assert max(r.spectral_drift for r in records) > 1e-11

    @pytest.mark.parametrize(
        "sys, tableau, h",
        [(ZeitlinSphere(9), "midpoint", 0.0025), (RigidBody(), "yoshida4", 0.05)],
        ids=["zeitlin-midpoint", "rigidbody-yoshida4"],
    )
    def test_update_is_reached_by_name_once_per_stage(self, sys, tableau, h, monkeypatch):
        # The benchmark's tracer times the update by swapping this module name.
        calls = _spy_on_updates(monkeypatch)
        _, stages = isospectral_sdirk_step(sys.initial_state(2), sys, _cfg(tableau=builtin(tableau)), h)
        assert len(calls) == len(stages) == len(builtin(tableau).b)


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
        c = np.linalg.solve(lo, hi)
        assert np.array_equal(cayley_conjugate(xi, x, unitary=True), c @ x @ c.conj().T)
        assert np.array_equal(dcay_inv(xi, x), lo @ x @ hi)

    def test_commutator_and_momentum_map(self, n, dtype, left, right):
        rng = np.random.default_rng(n)
        a, b = _operand(rng, n, dtype, left), _operand(rng, n, dtype, right)
        assert np.array_equal(commutator(a, b), a @ b - b @ a)
        assert np.array_equal(momentum_map(CotangentState(a, b)), a.conj().T @ b)

    def test_mixer_gram_and_update(self, n, dtype, left, right):
        # Every fitting call, with the rings filling and wrapping.
        rng = np.random.default_rng(n)
        mix = _AndersonMixer()
        for c in range(2 * _MIXING_DEPTH + 2):
            gx = _operand(rng, n, dtype, right)
            out = mix(_operand(rng, n, dtype, left), gx)
            if not c or c % _FIT_PERIOD:
                continue
            rows = mix._f[: c + 1]
            y = np.linalg.solve(rows.conj() @ rows.T, np.ones(len(rows)))
            assert out is not gx
            assert np.array_equal(out, ((y / y.sum()) @ mix._gx[: c + 1]).reshape(gx.shape))
