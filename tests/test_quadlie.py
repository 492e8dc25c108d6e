"""Cayley maps, membership, canonical spectra, and the seeded generator."""

import math
import re
import warnings

import numpy as np
import pytest

from isork.quadlie import (
    QuadraticStructure,
    SplitMix64,
    _EPS,
    _frobenius,
    _trace,
    cayley,
    cayley_conjugate,
    commutator,
    dcay,
    dcay_inv,
    frobenius_pairing,
    membership_residuals,
    orthogonal_structure,
    random_algebra_element,
    special_unitary_structure,
    spectrum,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _reference_splitmix64(seed, count):
    # Straight transcription of the scalar algorithm, kept independent
    # of the vectorized implementation under test.
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_known_words(self):
        assert _reference_splitmix64(0, 3) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]
        assert _reference_splitmix64(42, 3) == [
            0xBDD732262FEB6E95,
            0x28EFE333B266F103,
            0x47526757130F9F52,
        ]

    def test_uniform_matches_reference_mapping(self):
        words = _reference_splitmix64(42, 8)
        expected = [(w >> 11) * 2.0**-53 * 2.0 - 1.0 for w in words]
        got = SplitMix64(42).uniform(8)
        assert got.tolist() == expected

    def test_range_and_determinism(self):
        draws = SplitMix64(7).uniform(5000)
        assert np.all(draws >= -1.0) and np.all(draws < 1.0)
        assert np.array_equal(draws, SplitMix64(7).uniform(5000))

    def test_stream_splits_freely(self):
        rng = SplitMix64(123)
        a, b = rng.uniform(5), rng.uniform(3)
        assert np.array_equal(np.concatenate([a, b]), SplitMix64(123).uniform(8))

    def test_scalar_draw(self):
        x = SplitMix64(1).uniform()
        assert isinstance(x, float)
        assert x == SplitMix64(1).uniform(1)[0]

    def test_shape(self):
        assert SplitMix64(3).uniform((2, 3)).shape == (2, 3)

    @pytest.mark.parametrize(
        "seed, same_as",
        [(np.int64(7), 7), (np.uint64(2**64 - 1), -1), (-1, 2**64 - 1), (2**64 + 5, 5), (-(2**70) + 3, 3), (True, 1)],
    )
    def test_integer_seeds_keep_their_masked_stream(self, seed, same_as):
        draws = SplitMix64(seed).uniform(6)
        assert np.array_equal(draws, SplitMix64(same_as).uniform(6))
        expected = [(w >> 11) * 2.0**-53 * 2.0 - 1.0 for w in _reference_splitmix64(same_as, 6)]
        assert draws.tolist() == expected

    @pytest.mark.parametrize("seed", [1.5, 1.0, "7", None, np.float64(2.0)])
    def test_non_integer_seed_is_rejected(self, seed):
        # A fraction is rejected, never truncated to a neighbouring integer's stream.
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {re.escape(repr(seed))}$") as info:
            SplitMix64(seed)
        assert type(info.value) is ValueError
        with pytest.raises(ValueError, match="^seed must be an integer"):
            random_algebra_element(orthogonal_structure(3), seed)


class TestBasicOps:
    def test_commutator_value(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(commutator(a, b), [[0.0, 2.0], [0.0, 0.0]])

    def test_pairing_value(self):
        ones = np.ones((2, 2))
        assert frobenius_pairing(ones, ones) == 4.0

    def test_pairing_is_real_positive_on_matching_args(self):
        x = random_algebra_element(special_unitary_structure(4), 9)
        val = frobenius_pairing(x, x)
        assert abs(val.imag) < 1e-15
        assert val.real > 0


class TestCayley:
    def test_rotation_oracle(self):
        # cay([[0, 2], [-2, 0]]) is the quarter-turn rotation.
        got = cayley(2.0 * J2)
        assert np.allclose(got, J2, atol=1e-15)

    def test_identity_at_zero(self):
        assert np.array_equal(cayley(np.zeros((3, 3))), np.eye(3))

    def test_singular_offset_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            cayley(2.0 * np.eye(2))

    @pytest.mark.parametrize("ctx", [orthogonal_structure(4), special_unitary_structure(4)])
    def test_lands_in_group(self, ctx):
        for seed in range(40):
            xi = random_algebra_element(ctx, seed)
            group_res, _ = membership_residuals(cayley(xi), ctx)
            assert group_res < 1e-12

    def test_inverse_via_negation(self):
        xi = random_algebra_element(orthogonal_structure(5), 17)
        assert np.allclose(cayley(xi) @ cayley(-xi), np.eye(5), atol=1e-13)


class TestDcay:
    def test_dcay_inv_oracle(self):
        # dcay_inv at xi = eta = J2 equals (5/4) J2: (I - J/2) J (I + J/2)
        # expands to J + J/4 using J^2 = -I.
        assert np.allclose(dcay_inv(J2, J2), 1.25 * J2, atol=1e-15)

    def test_dcay_inverts_dcay_inv(self):
        ctx = orthogonal_structure(4)
        for seed in range(20):
            xi = random_algebra_element(ctx, seed)
            eta = random_algebra_element(ctx, seed + 1000)
            assert np.allclose(dcay(xi, dcay_inv(xi, eta)), eta, atol=1e-12)
            assert np.allclose(dcay_inv(xi, dcay(xi, eta)), eta, atol=1e-12)

    def test_first_order_expansion(self):
        # dcay_xi(eta) = eta + [xi, eta]/2 + O(xi^2); the remainder is
        # quadratic, so it shrinks 4x when xi shrinks 2x.
        ctx = orthogonal_structure(4)
        xi = random_algebra_element(ctx, 5)
        eta = random_algebra_element(ctx, 6)

        def remainder(scale):
            lin = eta + 0.5 * commutator(scale * xi, eta)
            return float(np.linalg.norm(dcay(scale * xi, eta) - lin))

        ratio = remainder(1e-3) / remainder(5e-4)
        assert abs(ratio - 4.0) < 0.2

    def test_adjoint_identity(self):
        # dcay_xi composed with dcay_inv at -xi is conjugation by
        # cay(xi); holds exactly, not just to leading order.
        for ctx in (orthogonal_structure(3), special_unitary_structure(4)):
            for seed in range(10):
                xi = random_algebra_element(ctx, seed)
                eta = random_algebra_element(ctx, seed + 500)
                lhs = dcay(xi, dcay_inv(-xi, eta))
                assert np.allclose(lhs, cayley_conjugate(xi, eta), atol=1e-12)

    def test_conjugate_matches_explicit_inverse(self):
        xi = random_algebra_element(special_unitary_structure(5), 8)
        x = random_algebra_element(special_unitary_structure(5), 9)
        q = cayley(xi)
        assert np.allclose(cayley_conjugate(xi, x), q @ x @ np.linalg.inv(q), atol=1e-12)


class TestUnitaryContext:
    @pytest.mark.parametrize(
        "ctx, identity_j, unitary",
        [
            (orthogonal_structure(4), True, False),
            (special_unitary_structure(4), True, True),
            (QuadraticStructure(4, np.eye(4, dtype=complex)), True, True),  # u(4)
            (QuadraticStructure(4, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)), False, False),
            (QuadraticStructure(2, J2), False, False),
        ],
        ids=["so4", "su4", "u4", "u22", "sp2"],
    )
    def test_flags(self, ctx, identity_j, unitary):
        assert (ctx.identity_j, ctx.unitary) == (identity_j, unitary)

    def test_flags_are_kept_after_first_use(self):
        ctx = special_unitary_structure(3)
        assert "unitary" not in vars(ctx)
        assert ctx.unitary
        assert vars(ctx)["identity_j"] is vars(ctx)["unitary"] is True

    def test_one_solve_matches_two_solves(self):
        ctx = special_unitary_structure(6)
        for seed in range(20):
            xi, x = random_algebra_element(ctx, seed), random_algebra_element(ctx, seed + 100)
            two = cayley_conjugate(xi, x)
            assert np.linalg.norm(cayley_conjugate(xi, x, unitary=True) - two) <= 1e-14 * np.linalg.norm(two)

    def test_one_solve_is_not_projected(self):
        # A Hermitian part of xi makes C x C^dagger a congruence, not a
        # similarity: the spectrum moves instead of the leak being hidden.
        ctx = special_unitary_structure(5)
        xi = random_algebra_element(ctx, 1) + 1e-6 * np.eye(5)
        x = random_algebra_element(ctx, 2)
        moved = np.abs(spectrum(cayley_conjugate(xi, x, unitary=True)) - spectrum(x)).max()
        assert moved > 1e-8
        assert np.abs(spectrum(cayley_conjugate(xi, x)) - spectrum(x)).max() < 1e-14


def _converged_stage(n, seed, half_norm, defect_norm):
    """xi, x and stage=(mu_c, d) of a stage (I - X) mu_c (I + X) = x + d, X = xi/2 in su(n).

    ||X||_F and ||d||_F are as given, ||mu_c||_F = 1; d is a random complex matrix, in no algebra.
    """
    ctx = special_unitary_structure(n)
    xi = random_algebra_element(ctx, seed)
    xi *= 2.0 * half_norm / _frobenius(xi)
    mu_c = random_algebra_element(ctx, seed + 1)
    mu_c /= _frobenius(mu_c)
    d = SplitMix64(seed + 2).uniform((n, n)) + 1j * SplitMix64(seed + 3).uniform((n, n))
    d *= defect_norm / _frobenius(d)
    eye = np.eye(n)
    x = (eye - xi / 2.0) @ mu_c @ (eye + xi / 2.0) - d
    return xi, x, (mu_c, d)


def _remainder_constant(r):
    """c(r) = 4 + 2 (1 + r) / (1 - r)^2 + 2 (1 + 2r) / (1 - r), the bound of gate 2 for r < 1."""
    return 4.0 + 2.0 * (1.0 + r) / (1.0 - r) ** 2 + 2.0 * (1.0 + 2.0 * r) / (1.0 - r)


class TestStageForm:
    # With a converged stage, the unitary update is x + 2 [X, mu_c - d],
    # no solve; C x C^dagger where a gate fails.

    @pytest.mark.parametrize("n", [6, 33])
    def test_solve_free_matches_two_solves(self, n, monkeypatch):
        import isork.quadlie as quadlie

        solves = []
        monkeypatch.setattr(quadlie, "cayley", lambda xi: solves.append(xi))
        for seed in range(10):
            xi, x, stage = _converged_stage(n, seed, 1e-5, 1e-8)
            two = cayley_conjugate(xi, x)
            bound = 1e-14 * np.linalg.norm(two)
            assert np.linalg.norm(cayley_conjugate(xi, x, unitary=True, stage=stage) - two) <= bound
            # The commutator term is larger than the check, so it cannot be dropped.
            d = stage[1]
            assert 2.0 * np.linalg.norm(commutator(xi / 2.0, d)) > 2.0 * bound
        assert solves == []

    @pytest.mark.parametrize(
        "leak, half_norm, defect_norm",
        [(1e-9, 1e-3, 1e-14), (0.0, 0.05, 1e-12), (0.0, 1.0, 0.0), (0.0, 1.5, 0.0)],
        ids=["hermitian-part", "remainder-above-roundoff", "X-at-1", "X-above-1"],
    )
    def test_a_failed_gate_takes_one_solve(self, leak, half_norm, defect_norm):
        # Gate 1: a Hermitian part of xi above 1e-12 ||xi||_F.  Gate 2:
        # r = ||X||_F >= 1, or c(r) r^2 ||d||_F above eps ||x||_F.  r >= 1
        # fails before c(r), which divides by 1 - r, is formed, so it
        # raises nothing and warns of nothing, whatever d.
        xi, x, stage = _converged_stage(5, 7, half_norm, defect_norm)
        xi = xi + leak * np.eye(5)
        one = cayley_conjugate(xi, x, unitary=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cayley_conjugate(xi, x, unitary=True, stage=stage)
        assert np.array_equal(got, one)

    def test_defect_free_stage_is_solve_free_at_r_0_2(self, monkeypatch):
        # With d = 0 the bound is 0 at any r < 1, so gate 2 passes.
        import isork.quadlie as quadlie

        xi, x, stage = _converged_stage(5, 7, 0.2, 0.0)
        two = cayley_conjugate(xi, x)
        solves = []
        monkeypatch.setattr(quadlie, "cayley", lambda xi: solves.append(xi))
        got = cayley_conjugate(xi, x, unitary=True, stage=stage)
        assert solves == []
        assert np.linalg.norm(got - two) <= 1e-14 * np.linalg.norm(two)

    def test_gate_2_bounds_with_c_of_r(self):
        # At r = 0.3, c(r) = 13.9: a defect between eps ||x||_F / (c(r) r^2)
        # and eps ||x||_F / r^2 passes a bound without c(r) but not gate 2.
        r = 0.3
        c = _remainder_constant(r)
        _, x, _ = _converged_stage(5, 7, r, 0.0)
        xi, x, stage = _converged_stage(5, 7, r, _EPS * np.linalg.norm(x) / (math.sqrt(c) * r * r))
        limit = _EPS * np.linalg.norm(x) / (r * r)
        assert limit / c < np.linalg.norm(stage[1]) < limit
        assert np.array_equal(cayley_conjugate(xi, x, unitary=True, stage=stage), cayley_conjugate(xi, x, unitary=True))

    def test_gate_2_reads_the_entering_state(self, monkeypatch):
        # Gate 2 holds the remainder to eps ||x||_F, x being the state the
        # update conjugates.  In su(2) with mu_c = X / ||X||_F at r = 0.9,
        # ||x||_F is 1 + r^2 / 2 = 1.405 times ||mu_c||_F, and a defect whose
        # bound lies between eps ||mu_c||_F and eps ||x||_F passes gate 2
        # only as it reads x.
        import isork.quadlie as quadlie

        r = 0.9
        c = _remainder_constant(r)
        xi = random_algebra_element(special_unitary_structure(2), 7)
        xi *= 2.0 * r / _frobenius(xi)
        mu_c = xi / _frobenius(xi)
        eye = np.eye(2)
        s = (eye - xi / 2.0) @ mu_c @ (eye + xi / 2.0)
        d = SplitMix64(9).uniform((2, 2)) + 1j * SplitMix64(10).uniform((2, 2))
        d *= math.sqrt(_frobenius(s) / _frobenius(mu_c)) * _EPS * _frobenius(mu_c) / (c * r * r * _frobenius(d))
        x = s - d
        assert _EPS * _frobenius(mu_c) < c * r * r * _frobenius(d) < _EPS * _frobenius(x)
        two = cayley_conjugate(xi, x)
        solves = []
        monkeypatch.setattr(quadlie, "cayley", lambda xi: solves.append(xi))
        got = cayley_conjugate(xi, x, unitary=True, stage=(mu_c, d))
        assert solves == []
        assert np.linalg.norm(got - two) <= 1e-14 * np.linalg.norm(two)

    def test_remainder_is_within_the_stated_bound(self):
        # Gate 2's bound: for r = ||X||_F < 1, cay(xi) d cay(xi)^{-1}
        # - d - 2 (X d - d X) is at most c(r) r^2 ||d||_F, X skew-Hermitian or not.
        rng = np.random.default_rng(5)
        for r in (0.1, 0.3, 0.6, 0.9):
            for k in range(200):
                n = 2 + k % 6
                half, d = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
                if k % 2:
                    half = half - half.conj().T
                half *= r / np.linalg.norm(half)
                remainder = cayley_conjugate(2.0 * half, d) - d - 2.0 * commutator(half, d)
                assert np.linalg.norm(remainder) <= _remainder_constant(r) * r**2 * np.linalg.norm(d)

    @pytest.mark.parametrize("skew", [True, False], ids=["skew-hermitian", "general"])
    def test_commutator_form_is_the_two_product_dcay_form(self, skew, monkeypatch):
        # x + 2 [X, mu_c - d] is (s - d) - 2 X d - (s - 2d) X with
        # s = 2 mu_c - (I - X) mu_c, the form it replaced, for any X with
        # r = ||X||_F < 1, mu_c and d.  Gate 1 is lifted for an X off the
        # algebra, and gate 2 for a defect the dropped -d or a flipped
        # commutator would show far above roundoff.
        import isork.quadlie as quadlie

        monkeypatch.setattr(quadlie, "_SKEW_SHARE", math.inf)
        monkeypatch.setattr(quadlie, "_EPS", math.inf)
        rng = np.random.default_rng(35)
        for k in range(60):
            n = 2 + k % 32
            half, mu_c, d = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
            if skew:
                half = half - half.conj().T
            half *= rng.uniform(0.001, 0.99) / np.linalg.norm(half)
            d *= 1e-3 * np.linalg.norm(mu_c) / np.linalg.norm(d)
            eye = np.eye(n)
            x = (eye - half) @ mu_c @ (eye + half) - d
            s = 2.0 * mu_c - (eye - half) @ mu_c
            two_product = (s - d) - 2.0 * half @ d - (s - 2.0 * d) @ half
            got = quadlie._stage_form(2.0 * half, x, mu_c, d)
            assert np.linalg.norm(got - two_product) <= 8 * _EPS * np.linalg.norm(two_product)

    def test_stage_is_read_only_in_a_unitary_context(self):
        xi, x, stage = _converged_stage(5, 3, 1e-5, 1e-8)
        assert np.array_equal(cayley_conjugate(xi, x, stage=stage), cayley_conjugate(xi, x))


def _loop_spectrum(a, real_tol=1e-9):
    """Canonical spectrum of one matrix, clustered by a while loop: the
    reference the stacked, vectorised `spectrum` must reproduce exactly."""
    ev = np.linalg.eigvals(np.asarray(a, dtype=np.result_type(a.dtype, np.float64)))
    ev = ev[np.lexsort((ev.imag, ev.real))]
    if ev.size == 0:
        return ev
    tol = real_tol * (1.0 + float(np.max(np.abs(ev))))
    out = np.empty_like(ev)
    i, n = 0, ev.size
    while i < n:
        j = i + 1
        while j < n and ev[j].real - ev[j - 1].real <= tol:
            j += 1
        cluster = ev[i:j]
        out[i:j] = cluster[np.argsort(cluster.imag, kind="stable")]
        i = j
    return out


class TestSpectrum:
    def test_real_diagonal_order(self):
        assert np.allclose(spectrum(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_conjugate_pair_order(self):
        assert np.allclose(spectrum(J2), [-1j, 1j])

    def test_empty(self):
        assert spectrum(np.zeros((0, 0))).size == 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_stack_of_tiny_matrices(self, n):
        stack = np.arange(3.0 * n * n).reshape(3, n, n) - 1.0
        got = spectrum(stack)
        assert got.shape == (3, n)
        for k in range(3):
            assert np.array_equal(got[k], _loop_spectrum(stack[k]))

    def test_stack_matches_each_matrix(self):
        # Skew stacks (conjugate pairs whose real parts are roundoff), a
        # real stack that mixes real and complex spectra, and matrices of
        # different scale: the tolerance is relative to each matrix, so
        # the 3e-9 real gap splits the first one's clusters.
        ctx = orthogonal_structure(5)
        skew = np.stack([random_algebra_element(ctx, seed) for seed in range(4)])
        mixed = np.stack([np.diag([3.0, 1.0, 2.0]), np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])])
        scales = np.stack([np.diag([3e-9 - 1j, 1j]), np.diag([100.0, 1.0])])
        assert np.array_equal(spectrum(scales)[0], [1j, 3e-9 - 1j])
        for stack in (skew, mixed, scales, skew.reshape(2, 2, 5, 5)):
            got = spectrum(stack)
            assert got.shape == stack.shape[:-1]
            for idx in np.ndindex(stack.shape[:-2]):
                assert np.array_equal(got[idx], spectrum(stack[idx]))
                assert np.array_equal(got[idx], _loop_spectrum(stack[idx]))

    def test_similarity_keeps_canonical_order(self):
        # Real parts of skew spectra are roundoff noise; the clustered
        # sort must pair eigenvalues identically across a similarity.
        ctx = orthogonal_structure(5)
        for seed in range(30):
            x = random_algebra_element(ctx, seed)
            q = cayley(random_algebra_element(ctx, seed + 100))
            drift = np.max(np.abs(spectrum(q @ x @ q.T) - spectrum(x)))
            assert drift < 1e-12

    def test_nearby_real_parts_cluster(self):
        # Two decks differing by a sub-tolerance real perturbation must
        # sort into matching orders.
        base = np.array([1e-17 + 2j, -1e-17 - 2j, 0.0 + 0j])
        jiggled = np.array([-1e-17 + 2j, 1e-17 - 2j, 0.0 + 0j])
        a = spectrum(np.diag(base))
        b = spectrum(np.diag(jiggled))
        assert np.allclose(a.imag, b.imag, atol=0)


class TestMembershipAndSampling:
    @pytest.mark.parametrize(
        "ctx", [orthogonal_structure(3), orthogonal_structure(6), special_unitary_structure(5)]
    )
    def test_random_elements_are_members(self, ctx):
        for seed in range(200):
            x = random_algebra_element(ctx, seed)
            _, algebra_res = membership_residuals(x, ctx)
            assert algebra_res < 1e-12

    def test_violations_are_flagged(self):
        ctx = orthogonal_structure(3)
        sym = np.ones((3, 3))
        _, algebra_res = membership_residuals(sym, ctx)
        assert algebra_res > 1.0
        group_res, _ = membership_residuals(2.0 * np.eye(3), ctx)
        assert group_res > 1.0

    def test_traceless_flag(self):
        x = random_algebra_element(special_unitary_structure(6), 11)
        assert abs(np.trace(x)) < 1e-15

    def test_scale_is_linear(self):
        ctx = orthogonal_structure(4)
        assert np.array_equal(
            random_algebra_element(ctx, 3, 2.0), 2.0 * random_algebra_element(ctx, 3, 1.0)
        )

    def test_symplectic_j_projection(self):
        # J = [[0, I], [-I, 0]] is not the identity, so the sample is
        # projected with a solve against J rather than antisymmetrized.
        eye = np.eye(2)
        ctx = QuadraticStructure(4, np.block([[0 * eye, eye], [-eye, 0 * eye]]))
        assert not ctx.identity_j
        x = random_algebra_element(ctx, 3)
        assert membership_residuals(x, ctx)[1] < 1e-15
        assert membership_residuals(cayley(x), ctx)[0] < 1e-14
        assert np.array_equal(x, random_algebra_element(ctx, 3))

    @staticmethod
    def _former_state_residual(x, traceless):
        """RigidBody's and ZeitlinSphere's own state_residual, for one matrix or a stack."""
        if not traceless:
            return _frobenius(x + x.mT)
        trace = _trace(x)
        return _frobenius(x + x.conj().mT) + np.hypot(trace.real, trace.imag)

    @pytest.mark.parametrize("structure", [orthogonal_structure, special_unitary_structure])
    def test_algebra_residual_equals_the_former_formulas(self, structure):
        # The membership formula with J and the systems' own formulas, on
        # single matrices and on stacks, for states a little off the algebra.
        for n in range(3, 34):
            ctx = structure(n)
            states = []
            for seed in range(32):
                x = random_algebra_element(ctx, seed) + 1e-3 * SplitMix64(seed + 99).uniform((n, n))
                if ctx.traceless:
                    x = x + 1e-3j * SplitMix64(seed + 199).uniform((n, n))
                states.append(x)
                membership = float(np.linalg.norm(ctx.J @ x + x.conj().T @ ctx.J))
                if ctx.traceless:
                    membership += abs(complex(np.trace(x)))
                own = float(self._former_state_residual(x, ctx.traceless))
                got = ctx.algebra_residual(x)
                assert repr(got) == repr(membership_residuals(x, ctx)[1]) == repr(membership) == repr(own)
            stack = np.stack(states)
            got = ctx.algebra_residual(stack)
            assert got.tobytes() == self._former_state_residual(stack, ctx.traceless).tobytes()
            assert [repr(float(r)) for r in got] == [repr(ctx.algebra_residual(x)) for x in states]

    @pytest.mark.parametrize("ctx", [orthogonal_structure(3), special_unitary_structure(3)])
    def test_algebra_residual_keeps_an_inf_state_inf(self, ctx):
        # A product with J = I would read 0 * inf = NaN.
        x = np.zeros((3, 3), dtype=ctx.dtype)
        x[0, 1] = np.inf
        assert ctx.algebra_residual(x) == np.inf
        with np.errstate(invalid="ignore"):  # the group residual's products meet 0 * inf
            assert membership_residuals(x, ctx)[1] == np.inf
        assert ctx.algebra_residual(np.stack([x, np.zeros_like(x)])).tolist() == [np.inf, 0.0]

    def test_algebra_residual_with_symplectic_j(self):
        eye = np.eye(2)
        ctx = QuadraticStructure(4, np.block([[0 * eye, eye], [-eye, 0 * eye]]))
        for seed in range(20):
            x = SplitMix64(seed).uniform((4, 4))
            assert ctx.algebra_residual(x) == np.linalg.norm(ctx.J @ x + x.T @ ctx.J)

    def test_dtypes(self):
        assert random_algebra_element(orthogonal_structure(3), 0).dtype == np.float64
        assert random_algebra_element(special_unitary_structure(3), 0).dtype == np.complex128
