"""Stage solves, macro steps, cotangent form, and reference baselines."""

import math

import numpy as np
import pytest

from isork.integrator import (
    CotangentState,
    NonConvergenceError,
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
    commutator,
    dcay,
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


class _ConstantFlow:
    """B fixed, so mu_dot = [B0, mu] is linear with exact solution Ad_exp."""

    def __init__(self, b0):
        self.b0 = b0

    def B(self, w):
        return self.b0


def _cfg(**kw):
    return StepperConfig(**kw)


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
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            StepperConfig(**kw)


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
            solve_stage(mu, 2.0, sys, _cfg())
        st = solve_stage(mu, 1.0, sys, _cfg())
        assert st.iters <= 50

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
        mu = sys.initial_state(42, scale=4.0)
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
            run_trajectory(mu0, sys, cfg, 2.0, 3)
        assert info.value.step == 0
        assert info.value.stage == 0
        assert "step 0" in str(info.value)


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
        # stepping the reduced variable directly.
        tab = builtin(tableau)
        cfg = _cfg(tableau=tab, update_form="dcay")
        for sys, seed in ((RigidBody(), 4), (ZeitlinSphere(N=5), 2)):
            mu = sys.initial_state(seed)
            state = cotangent_lift(mu)
            for _ in range(20):
                state, _ = cotangent_sdirk_step(state, sys, cfg, 0.02)
                mu, _ = isospectral_sdirk_step(mu, sys, cfg, 0.02)
            assert np.linalg.norm(momentum_map(state) - mu) < 1e-11

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


def test_toda_lax_form_held_by_stepper():
    # Symmetry of the Lax matrix is preserved to solver tolerance each
    # step (the generator is skew exactly on the symmetric slice).
    sys = TodaExtended(n=4)
    mu = sys.initial_state(0)
    cfg = _cfg()
    for _ in range(50):
        mu, _ = isospectral_sdirk_step(mu, sys, cfg, 0.05)
        assert sys.state_residual(mu) < 1e-11
