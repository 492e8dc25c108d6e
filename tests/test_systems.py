"""Benchmark systems: energies, gradients, generators, invariant data."""

import numpy as np
import pytest

from isork.quadlie import (
    commutator,
    frobenius_pairing,
    membership_residuals,
    random_algebra_element,
)
from isork.systems import (
    RigidBody,
    TodaExtended,
    ZeitlinSphere,
    _apply_laplacian_pinv,
    _laplacian_coefficients,
    _laplacian_pinv,
    casimirs,
    toda_extended_B,
    toda_extended_H,
    toda_lax_matrices,
    zeitlin_laplacian,
    zeitlin_laplacian_inv,
    zeitlin_spin_generators,
)

W_E12 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _scatter_toda_B(w):
    """Reference for toda_extended_B: the sign pattern written entry by entry."""
    n = w.shape[0]
    out = np.zeros_like(w, dtype=np.result_type(w.dtype, np.float64))
    idx = np.arange(n - 1)
    out[idx, idx + 1] = w[idx, idx + 1]
    out[idx + 1, idx] = -w[idx + 1, idx]
    out[0, n - 1] = -w[0, n - 1]
    out[n - 1, 0] = w[n - 1, 0]
    return out


def _thomas_longdouble(diag, off, rhs):
    """Solve the symmetric tridiagonal system (diag, off) x = rhs by the
    Thomas algorithm in np.longdouble, independent of LAPACK."""
    a = np.array(diag, dtype=np.longdouble)
    e = np.array(off, dtype=np.longdouble)
    x = np.array(rhs, dtype=np.clongdouble)
    for i in range(1, a.size):
        m = e[i - 1] / a[i - 1]
        a[i] -= m * e[i - 1]
        x[i] -= m * x[i - 1]
    x[-1] /= a[-1]
    for i in range(a.size - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / a[i]
    return x


def _per_diagonal_laplacian_inv(w):
    """Reference for zeitlin_laplacian_inv: each diagonal w[i, i+k],
    k = 1-N..N-1, solved through its own tridiagonal block in extended
    precision and written back with a strided store.  The k = 0 block's
    kernel is the ones vector: its last entry is fixed at 0, the rest
    solved, and the mean subtracted."""
    N = w.shape[0]
    d, c = _laplacian_coefficients(N)
    flat = np.empty(N * N, dtype=complex)
    for k in range(1 - N, N):
        diag, off, rhs = np.diagonal(d, k), -np.diagonal(c, k)[:-1], np.diagonal(w, k)
        if k:
            x = _thomas_longdouble(diag, off, rhs)
        else:
            x = np.append(_thomas_longdouble(diag[:-1], off[:-1], rhs[:-1]), 0)
            x -= x.mean()
        start = max(k, -k * N)  # flat index of w[0, k] or w[-k, 0]; the diagonal has stride N + 1
        flat[start : start + (N - abs(k)) * (N + 1) : N + 1] = x
    return flat.reshape(N, N)


def test_casimir_traces():
    w = np.diag([1.0, 2.0, 3.0])
    assert casimirs(w, (2, 3)) == [14.0, 36.0]
    # Descending and repeated orders come out of the same power chain.
    assert casimirs(w, (3, 2)) == [36.0, 14.0]
    assert casimirs(w, (3, 2, 3)) == [36.0, 14.0, 36.0]


class TestRigidBody:
    def test_generator_value(self):
        # Inertia (1, 2, 3): the 1-2 plane spin has B = -(3/4) W.
        assert np.allclose(RigidBody().B(W_E12), -0.75 * W_E12, atol=1e-15)

    def test_isotropic_inertia(self):
        assert np.allclose(RigidBody((1.0, 1.0, 1.0)).B(W_E12), -W_E12, atol=1e-15)

    def test_energy_and_invariant_values(self):
        sys = RigidBody()
        assert abs(sys.hamiltonian(W_E12) - 0.75) < 1e-15
        assert abs(sys.casimirs(W_E12)[0] - 2.0) < 1e-14

    def test_principal_axis_is_equilibrium(self):
        w = np.zeros((3, 3))
        w[1, 2], w[2, 1] = 1.0, -1.0
        sys = RigidBody()
        assert np.linalg.norm(commutator(sys.B(w), w)) < 1e-15

    def test_inertia_validation(self):
        with pytest.raises(ValueError):
            RigidBody((1.0, -2.0, 3.0))
        with pytest.raises(ValueError, match="inertia"):
            RigidBody((1e-320, 1.0, 1.0))  # positive, but 1/1e-320 overflows


class TestToda:
    def test_lax_layout(self):
        lax, gen = toda_lax_matrices([1.0, 2.0, 3.0, 4.0], [0.5, -0.5, 0.25, -0.25])
        assert np.array_equal(
            lax,
            [
                [1.0, 0.5, 0.0, -0.25],
                [0.5, 2.0, -0.5, 0.0],
                [0.0, -0.5, 3.0, 0.25],
                [-0.25, 0.0, 0.25, 4.0],
            ],
        )
        assert np.array_equal(
            gen,
            [
                [0.0, 0.5, 0.0, 0.25],
                [-0.5, 0.0, -0.5, 0.0],
                [0.0, 0.5, 0.0, 0.25],
                [-0.25, 0.0, -0.25, 0.0],
            ],
        )

    def test_lax_validation(self):
        with pytest.raises(ValueError):
            toda_lax_matrices([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            toda_lax_matrices([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_energy_values(self):
        sys = TodaExtended(n=4)
        w0 = sys.initial_state(0)
        assert sys.hamiltonian(w0) == 24.0
        assert sys.casimirs(w0) == [12.0, 0.0, 52.0]
        # Diagonal states carry only the trace term 2 tr(w^2).
        diag, _ = toda_lax_matrices([1.0, 2.0, -3.0], [0.0, 0.0, 0.0])
        assert toda_extended_H(diag) == 28.0

    def test_diagonal_is_fixed(self):
        sys = TodaExtended(n=5)
        diag, _ = toda_lax_matrices([1.0, -2.0, 0.5, 3.0, -1.0], np.zeros(5))
        assert np.all(sys.B(diag) == 0.0)

    def test_mask_is_odd_under_transpose(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((5, 5))
        assert np.allclose(toda_extended_B(w.T), -toda_extended_B(w).T, atol=0)

    def test_generator_skew_on_lax_states(self):
        sys = TodaExtended(n=6)
        rng = np.random.default_rng(1)
        for _ in range(50):
            lax, _ = toda_lax_matrices(rng.standard_normal(6), rng.standard_normal(6))
            b = sys.B(lax)
            assert np.array_equal(b, -b.T)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            TodaExtended(n=2)
        with pytest.raises(ValueError, match="n must be at least 3, got 2"):
            toda_extended_B(np.ones((2, 2)))

    def test_mask_product_matches_scatter(self):
        rng = np.random.default_rng(3)
        for n in range(3, 9):
            sys = TodaExtended(n=n)
            for _ in range(20):
                w = rng.standard_normal((n, n))
                assert np.array_equal(toda_extended_B(w), _scatter_toda_B(w))
                assert np.array_equal(sys.B(w), 2.0 * _scatter_toda_B(w.T))
                assert sys.B(w).tobytes() == (2.0 * toda_extended_B(w.T)).tobytes()
                assert toda_extended_B(w).dtype == _scatter_toda_B(w).dtype

    def test_initial_state_alternates(self):
        w0 = TodaExtended(n=4).initial_state(12345)  # seed is irrelevant here
        assert np.array_equal(np.diag(w0), [-1.0, 1.0, -1.0, 1.0])
        assert np.array_equal(w0, w0.T)


class TestZeitlinOperators:
    def test_spin_relations(self):
        s1, s2, s3 = zeitlin_spin_generators(5)
        s = 2.0
        assert np.allclose(np.diag(s3), 1j * np.array([2.0, 1.0, 0.0, -1.0, -2.0]))
        for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
            assert np.linalg.norm(commutator(a, b) - c) < 1e-14
        assert np.linalg.norm(s1 @ s1 + s2 @ s2 + s3 @ s3 + s * (s + 1) * np.eye(5)) < 1e-13
        for s_k in (s1, s2, s3):
            assert abs(np.trace(s_k)) < 1e-14
            assert np.linalg.norm(s_k + s_k.conj().T) < 1e-14

    def test_size_validation(self):
        with pytest.raises(ValueError):
            zeitlin_spin_generators(1)
        with pytest.raises(ValueError):
            ZeitlinSphere(N=1)

    def test_laplacian_eigenmatrix(self):
        # The generators themselves are l = 1 harmonics: eigenvalue 2.
        for N in (3, 5, 8):
            for s_k in zeitlin_spin_generators(N):
                assert np.linalg.norm(zeitlin_laplacian(s_k) - 2.0 * s_k) < 1e-12

    def test_scatter_inverts_gather(self):
        for N in [*range(2, 71), 128]:
            _, gather, scatter = _laplacian_pinv(N)
            assert np.array_equal(gather.ravel()[scatter], np.arange(N * N).reshape(N, N))

    def test_inverse_round_trip(self):
        ctx = ZeitlinSphere(N=7).context
        for seed in range(10):
            w = random_algebra_element(ctx, seed)
            back = zeitlin_laplacian(zeitlin_laplacian_inv(w))
            assert np.linalg.norm(back - w) < 1e-12

    def test_inverse_rejects_trace(self):
        with pytest.raises(ValueError, match="traceless"):
            zeitlin_laplacian_inv(np.eye(5, dtype=complex))

    def test_forward_matches_commutators(self):
        for N in (2, 3, 5, 8, 33):
            w = random_algebra_element(ZeitlinSphere(N=N).context, N)
            ref = -sum(commutator(s_k, commutator(s_k, w)) for s_k in zeitlin_spin_generators(N))
            assert np.linalg.norm(zeitlin_laplacian(w) - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_inverse_matches_dense_pseudoinverse(self):
        # The reference: the operator as a dense N^2 x N^2 matrix on
        # vec(w), inverted through its eigendecomposition.
        # N = 2 has a single wrapped off-diagonal, which crosses the seam.
        # The traced input, which only the unchecked operator that B uses
        # takes, checks that the identity component maps to zero.
        for N in (2, 3, 5, 9, 17, 33):
            eye = np.eye(N)
            op = np.zeros((N * N, N * N), dtype=complex)
            for s_k in zeitlin_spin_generators(N):
                ad = np.kron(s_k, eye) - np.kron(eye, s_k.T)
                op -= ad @ ad
            evals, vecs = np.linalg.eigh(op)
            inv = np.where(evals > 1.0, 1.0 / np.where(evals > 1.0, evals, 1.0), 0.0)
            pinv = (vecs * inv) @ vecs.conj().T
            for seed in range(3):
                w = random_algebra_element(ZeitlinSphere(N=N).context, seed)
                ref = (pinv @ w.reshape(-1)).reshape(N, N)
                assert np.linalg.norm(zeitlin_laplacian_inv(w) - ref) <= 1e-12 * np.linalg.norm(ref)
                traced = w + 1e-3j * np.eye(N)
                ref = (pinv @ traced.reshape(-1)).reshape(N, N)
                assert np.linalg.norm(_apply_laplacian_pinv(traced) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_inverse_matches_per_diagonal_reference(self):
        for N in range(2, 66):
            w = random_algebra_element(ZeitlinSphere(N=N).context, N)
            ref = _per_diagonal_laplacian_inv(w)
            assert np.linalg.norm(zeitlin_laplacian_inv(w) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_large_round_trip(self):
        w = random_algebra_element(ZeitlinSphere(N=65).context, 0)
        back = zeitlin_laplacian(zeitlin_laplacian_inv(w))
        assert np.linalg.norm(back - w) < 1e-12 * np.linalg.norm(w)


class TestZeitlinSystem:
    def test_zonal_equilibrium(self):
        # w proportional to S3 is an l = 1 harmonic, so the stream
        # matrix is parallel to w and the bracket vanishes.
        sys = ZeitlinSphere(N=6)
        w = 0.7 * zeitlin_spin_generators(sys.N)[2]
        assert np.linalg.norm(commutator(sys.B(w), w)) < 1e-12

    def test_energy_real_positive(self):
        sys = ZeitlinSphere(N=9)
        for seed in range(5):
            h = sys.hamiltonian(sys.initial_state(seed))
            assert isinstance(h, float) and h > 0

    def test_initial_state_unit_norm(self):
        sys = ZeitlinSphere(N=9)
        w = sys.initial_state(4)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-13
        assert sys.state_residual(w) < 1e-13
        assert np.linalg.norm(sys.initial_state(4, scale=2.5) - 2.5 * w) < 1e-15

    def test_casimir_parity(self):
        # Odd traces of skew-Hermitian matrices are imaginary; the
        # diagnostics record the imaginary part for odd orders and the
        # real part for even orders.
        sys = ZeitlinSphere(N=6)
        w = sys.initial_state(2)
        c2, c3, c4, c5 = sys.casimirs(w)
        assert abs(c2 - np.real(np.trace(w @ w))) < 1e-15
        assert abs(c3 - np.imag(np.trace(w @ w @ w))) < 1e-15
        assert abs(c4 - np.real(np.trace(np.linalg.matrix_power(w, 4)))) < 1e-15
        assert abs(c5 - np.imag(np.trace(np.linalg.matrix_power(w, 5)))) < 1e-15

    def test_forward_variant_flips_operator(self):
        inv = ZeitlinSphere(N=5)
        fwd = ZeitlinSphere(N=5, forward_laplacian=True)
        w = inv.initial_state(1)
        expected = 5.0 ** 1.5 * zeitlin_laplacian(w)
        assert np.allclose(fwd.grad_hamiltonian(w), expected, atol=1e-13)

    def test_stream_sheds_identity_component(self):
        # Stage iterates can pick up a small trace; the generator must
        # treat it as the (kernel) identity direction, not an error.  The
        # pseudoinverse alone removes it, to within roundoff of |B(w)|.
        # One test over all cases, so that its id stays as it was.
        for N in (5, 17, 33, 65):
            sys = ZeitlinSphere(N=N)
            w = sys.initial_state(0)
            b = sys.B(w)
            for shift in (1e-8, 1e-3, 1e-3j):
                gap = np.linalg.norm(sys.B(w + shift * np.eye(N)) - b)
                assert gap <= 1e-13 * np.linalg.norm(b), (N, shift, gap)


def _systems_for_fd():
    return [
        (RigidBody(), RigidBody().initial_state(42)),
        (TodaExtended(n=4), TodaExtended(n=4).initial_state(0)),
        (ZeitlinSphere(N=5), ZeitlinSphere(N=5).initial_state(3)),
    ]


@pytest.mark.parametrize("system,w", _systems_for_fd(), ids=lambda v: getattr(v, "name", ""))
def test_gradient_matches_central_differences(system, w):
    # All three energies are quadratic, so the central difference has no
    # truncation term and the agreement is limited by roundoff alone.
    delta = random_algebra_element(system.context, 11)
    eps = 1e-6
    fd = (system.hamiltonian(w + eps * delta) - system.hamiltonian(w - eps * delta)) / (2 * eps)
    analytic = float(np.real(frobenius_pairing(system.grad_hamiltonian(w), delta)))
    # The difference quotient cancels |H|-sized values, so roundoff
    # enters at (|H| / eps) ulps; leave an order of magnitude of slack.
    roundoff = (1.0 + abs(system.hamiltonian(w))) / eps * np.finfo(float).eps
    assert abs(fd - analytic) < 10.0 * roundoff


@pytest.mark.parametrize("system,w", _systems_for_fd(), ids=lambda v: getattr(v, "name", ""))
def test_gradient_fd_error_is_second_order(system, w):
    # Probing through H^2 instead: its third derivative is nonzero, so
    # the central-difference error is visibly O(eps^2) and halving eps
    # divides it by four.
    delta = random_algebra_element(system.context, 11)
    h0 = system.hamiltonian(w)
    analytic = 2.0 * h0 * float(np.real(frobenius_pairing(system.grad_hamiltonian(w), delta)))

    def fd_error(eps):
        plus = system.hamiltonian(w + eps * delta) ** 2
        minus = system.hamiltonian(w - eps * delta) ** 2
        return abs((plus - minus) / (2 * eps) - analytic)

    ratio = fd_error(2e-2) / fd_error(1e-2)
    assert 4.0 * 0.7 < ratio < 4.0 * 1.3


@pytest.mark.parametrize(
    "system,states",
    [
        (RigidBody(), None),
        (TodaExtended(n=5), "lax"),
        (ZeitlinSphere(N=6), None),
    ],
    ids=("rigidbody", "toda", "zeitlin"),
)
def test_generator_lands_in_algebra(system, states):
    rng = np.random.default_rng(7)
    for seed in range(100):
        if states == "lax":
            w, _ = toda_lax_matrices(rng.standard_normal(5), rng.standard_normal(5))
        else:
            w = random_algebra_element(system.context, seed)
        _, algebra_res = membership_residuals(system.B(w), system.context)
        assert algebra_res < 1e-12 * (1.0 + float(np.linalg.norm(w)))
