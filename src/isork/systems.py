"""Benchmark isospectral Lie-Poisson flows.

Three matrix systems of the form mu_dot = [B(mu), mu] with
B = (grad H)^dagger, the gradient taken with respect to the Frobenius
pairing <xi, alpha> = trace(xi^dagger alpha):

* RigidBody: the free rigid body on so(3), H(W) = <Iinv W, W>/2 with a
  symmetric 3x3 inertia matrix.
* TodaExtended: a periodic Toda flow extended from the symmetric Lax
  form to full gl(n), with the quadratic-trace energy term.
* ZeitlinSphere: the spin-truncated vorticity equation on the sphere,
  skew-Hermitian traceless W with a stream matrix obtained by inverting
  the double-commutator Laplacian of irreducible spin generators, which
  is tridiagonal on each diagonal W[i, i+k].  Its pseudoinverse is a
  half stack of N//2 + 1 blocks, one per wrapped diagonal
  W[i, (i+k) % N] with k <= N//2, built by a single batched LU inverse
  (the kernel of the k = 0 block is shifted out by a rank-one term)
  and applied to the wrapped diagonals of W and of W^T together in one
  batched matmul.

Every analytic gradient here is validated against central finite
differences in the test suite; B maps are pure functions evaluated
fresh at every solver iteration, and the stage solver's chord phase
relies on that to keep the unit images B(E_k) of the last B and size
in one slot, matched by identity.  System objects are immutable after
construction (the Laplacian's pseudoinverse blocks are precomputed),
so one instance can serve any number of concurrent trajectories.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .quadlie import (
    QuadraticStructure,
    _count,
    _frobenius,
    _real,
    _trace,
    orthogonal_structure,
    random_algebra_element,
    special_unitary_structure,
)

__all__ = [
    "IsospectralSystem",
    "RigidBody",
    "TodaExtended",
    "ZeitlinSphere",
    "toda_lax_matrices",
    "toda_extended_B",
    "toda_extended_H",
    "zeitlin_spin_generators",
    "zeitlin_laplacian",
    "zeitlin_laplacian_inv",
    "casimirs",
]


def _float(value):
    """A single matrix's value as a float; a stack's values stay an array."""
    return float(value) if np.ndim(value) == 0 else value


def casimirs(w: np.ndarray, orders) -> list[float]:
    """Trace Casimirs tr(w^k) for the requested integer orders k >= 1, as real numbers.

    One chain of products w, w^2, ..., w^max(orders) gives every power,
    so orders may repeat or come in any order.  Real input reports the
    trace itself.  Complex input reports the real part for even k and
    the imaginary part for odd k: on skew-Hermitian states tr(w^k) is
    real for even k and purely imaginary for odd k, so the other part
    vanishes identically.  A stack (..., n, n) gives the rows of an
    array (..., len(orders)), of shape (..., 0) for no orders.
    """
    orders = [_count(k, 1, "casimir order") for k in orders]
    odd_imag = np.iscomplexobj(w)
    traces = {}
    p = np.eye(w.shape[-1], dtype=np.result_type(w.dtype, np.float64))
    for k in range(1, max(orders, default=0) + 1):
        p = p @ w
        if k in orders:
            traces[k] = _trace(p)
    out = [traces[k].imag if odd_imag and k % 2 else traces[k].real for k in orders]
    if w.ndim == 2:
        return [float(c) for c in out]
    return np.stack(out, axis=-1) if out else np.zeros(w.shape[:-2] + (0,))


class IsospectralSystem:
    """Shared surface of the benchmark systems.

    Subclasses set `name`, `n`, `context`, `casimir_orders` and
    implement `hamiltonian` and `grad_hamiltonian`.  `state_residual`
    and `initial_state` default to the context's `algebra_residual` and
    seeded `random_algebra_element`; a system whose states are not in
    that algebra overrides both.  `hamiltonian`, `casimirs` and
    `state_residual` also take a stack (..., n, n), giving arrays (...),
    (..., k), (...).  The flow generator defaults to B = (grad H)^dagger;
    systems whose energy contains a Casimir summand may override B to
    drop that part, since a Casimir gradient commutes with the state and
    cannot move it.
    """

    name: str = ""
    n: int = 0
    context: QuadraticStructure
    casimir_orders: tuple[int, ...] = (2,)

    def hamiltonian(self, w: np.ndarray) -> float:
        raise NotImplementedError

    def grad_hamiltonian(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def B(self, w: np.ndarray) -> np.ndarray:
        return self.grad_hamiltonian(w).conj().T

    def casimirs(self, w: np.ndarray) -> list[float]:
        return casimirs(w, self.casimir_orders)

    def state_residual(self, w: np.ndarray) -> float:
        """Frobenius residual of w against the system's state structure."""
        return self.context.algebra_residual(w)

    def initial_state(self, seed: int, scale: float = 1.0) -> np.ndarray:
        return random_algebra_element(self.context, seed, scale)


# --- rigid body ---------------------------------------------------------


class RigidBody(IsospectralSystem):
    """Free rigid body on so(3), H(W) = <Iinv W, W>/2.

    B is the transpose of (Iinv W + W Iinv)/2, the skew projection of
    Iinv W; isotropic inertia gives B = -W, and a W along one principal
    axis is a relative equilibrium.

    The reported quadratic invariant is the squared Frobenius norm
    ||W||_F^2 (the angular momentum magnitude squared, equal to
    -tr(W^2) on the skew algebra), listed under the casimir_2 column.
    The three moments of inertia are positive, finite reals with finite
    inverses.
    """

    name = "rigidbody"
    n = 3
    casimir_orders = (2,)

    def __init__(self, inertia=(1.0, 2.0, 3.0)):
        self.inertia = tuple(_real(x, "inertia moment", "positive and finite") for x in inertia)
        if len(self.inertia) != 3 or not all(1.0 / x < math.inf for x in self.inertia):
            raise ValueError(f"inertia needs three positive moments with finite inverses, got {self.inertia}")
        self._iinv = np.diag([1.0 / x for x in self.inertia])
        self.context = orthogonal_structure(3)

    def hamiltonian(self, w: np.ndarray) -> float:
        return _float(0.5 * _trace((self._iinv @ w).mT @ w))

    def grad_hamiltonian(self, w: np.ndarray) -> np.ndarray:
        return (self._iinv.dot(w) + w.dot(self._iinv)) / 2.0

    def casimirs(self, w: np.ndarray) -> list[float]:
        # float_power rounds as float ** 2 does (libm pow); array ** 2 squares.
        return [_frobenius(w) ** 2] if w.ndim == 2 else np.float_power(_frobenius(w), 2.0)[..., None]


# --- periodic Toda, extended to gl(n) -----------------------------------


def _lattice_size(n) -> int:
    """The Toda size rule, shared by the Lax data and the system: n as an int, at least 3."""
    return _count(n, 3, "n")


def toda_lax_matrices(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Periodic Lax pair (L, B(L)) from diagonal and off-diagonal lists.

    L is symmetric with a on the diagonal and b_i coupling site i to its
    cyclic neighbour i+1 (mod n), so b_n sits in the (1,n)/(n,1)
    corners; B(L) is its skew counterpart, +b_i at (i, i+1 mod n) and
    -b_i at (i+1 mod n, i).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be equal-length 1-d lists")
    n = _lattice_size(a.size)
    lax = np.diag(a)
    i = np.arange(n)
    lax[i, (i + 1) % n] = lax[(i + 1) % n, i] = b
    return lax, toda_extended_B(lax)


@functools.lru_cache(maxsize=None)
def _toda_sign_mask(n: int) -> np.ndarray:
    """The +-1/0 pattern of toda_extended_B on n x n matrices."""
    n = _lattice_size(n)
    mask = np.zeros((n, n))
    i = np.arange(n)
    mask[i, (i + 1) % n] = 1.0
    mask[(i + 1) % n, i] = -1.0
    mask.setflags(write=False)
    return mask


def toda_extended_B(w: np.ndarray) -> np.ndarray:
    """Entry mask sending w to its cyclic off-diagonal signed part.

    Keeps each entry W_{i,i+1} towards the cyclic neighbour i+1 (mod n)
    and negates each entry W_{i+1,i} back from it, so B_{n,1} = +W_{n,1}
    and B_{1,n} = -W_{1,n}.  On symmetric w the result is skew-symmetric
    and coincides with the classical Toda B(L).  n must be at least 3.
    """
    return w * _toda_sign_mask(w.shape[-1])


def toda_extended_H(w: np.ndarray) -> float:
    """Extended Toda energy -tr(w^T B(w)) + 2 tr(w^2).

    The first term vanishes on symmetric w (the mask is odd under
    transposition), so on Lax-form states the energy reduces to the
    classical 2 tr(L^2); off the symmetric slice the extra term is what
    generates the flow.
    """
    w = np.asarray(w, dtype=float)
    return _float(-_trace(w.mT @ toda_extended_B(w)) + 2.0 * _trace(w @ w))


class TodaExtended(IsospectralSystem):
    """Periodic Toda flow on gl(n) with energy toda_extended_H.

    The gradient of the energy is -2 B(w) + 4 w^T.  The 2 tr(w^2) part
    is a Casimir: its gradient transposes to 4 w, which commutes with w
    and contributes nothing to the flow, while inside the implicit
    updates it would leak O(h^2) asymmetry into Lax-form states.  The
    stepper generator therefore keeps only the mask part,
    B(w) = 2 * mask(w^T), which is skew-symmetric exactly on the
    symmetric slice; trace Casimirs, and with them the dropped energy
    term, are conserved exactly by the similarity updates, so the
    reported energy drift is unaffected.
    """

    name = "toda"

    def __init__(self, n: int = 4):
        self.n = n = _lattice_size(n)
        self.context = orthogonal_structure(n)
        self.casimir_orders = tuple(range(2, n + 1))
        self._b_mask = 2.0 * _toda_sign_mask(n)

    def hamiltonian(self, w: np.ndarray) -> float:
        return toda_extended_H(w)

    def grad_hamiltonian(self, w: np.ndarray) -> np.ndarray:
        return -2.0 * toda_extended_B(w) + 4.0 * w.T

    def B(self, w: np.ndarray) -> np.ndarray:
        return w.T * self._b_mask

    def state_residual(self, w: np.ndarray) -> float:
        return _frobenius(w - w.mT)

    def initial_state(self, seed: int, scale: float = 1.0) -> np.ndarray:
        # The alternating-sign Lax data; deterministic, the seed only checked as on every system.
        _count(seed, -math.inf, "seed")
        scale = _real(scale, "scale", "positive and finite")
        signs = (-1.0) ** np.arange(1, self.n + 1)
        lax, _ = toda_lax_matrices(scale * signs, scale * signs)
        return lax


# --- Zeitlin sphere ------------------------------------------------------


def _sphere_size(N) -> int:
    """The Zeitlin size rule, shared by the spin generators and the system: N as an int, at least 2."""
    return _count(N, 2, "N")


@functools.lru_cache(maxsize=None)
def zeitlin_spin_generators(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Skew-Hermitian generators of the irreducible spin-(N-1)/2 representation.

    Built from the Hermitian angular momentum matrices J1, J2, J3 in
    the m = -s..s basis as S1 = -i J1, S2 = -i J2, S3 = -i J3, giving
    S3 = i diag(s, s-1, ..., -s) and the cyclic relations
    [S1, S2] = S3, [S2, S3] = S1, [S3, S1] = S2.  Each S_k is traceless
    and skew-Hermitian, and sum_k S_k^2 = -s(s+1) I.
    """
    s = (_sphere_size(N) - 1) / 2.0
    m = -s + np.arange(N)
    j3 = np.diag(m).astype(complex)
    jplus = np.diag(np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] + 1)), -1).astype(complex)
    jminus = jplus.conj().T
    j1 = (jplus + jminus) / 2.0
    j2 = (jplus - jminus) / 2j
    s1, s2, s3 = -1j * j1, -1j * j2, -1j * j3
    for arr in (s1, s2, s3):
        arr.setflags(write=False)
    return s1, s2, s3


@functools.lru_cache(maxsize=None)
def _laplacian_coefficients(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries (d, c) of the Laplacian, L(w) = 2s(s+1) w - 2 sum_k J_k w J_k.

    L(w)_ij = d_ij w_ij - c_{i-1,j-1} w_{i-1,j-1} - c_ij w_{i+1,j+1} with
    d = 2s(s+1) - 2 m m^T and c = l l^T, l_i = sqrt(s(s+1) - m_i(m_i+1))
    being the J+ entries of `zeitlin_spin_generators` (l_{N-1} = 0).
    """
    s = (N - 1) / 2.0
    m = -s + np.arange(N)
    ell = np.sqrt(s * (s + 1) - m * (m + 1))
    return 2.0 * s * (s + 1) - 2.0 * np.outer(m, m), np.outer(ell, ell)


def zeitlin_laplacian(w: np.ndarray) -> np.ndarray:
    """Hoppe Laplacian -sum_k [S_k, [S_k, w]], in O(N^2) from its entries.

    The sign makes the operator positive semidefinite with eigenvalue
    l(l+1) on the spin-l matrix harmonics; its kernel is spanned by the
    identity, so it is invertible on traceless matrices.
    """
    d, c = _laplacian_coefficients(w.shape[-1])
    out = d * w
    out[..., 1:, 1:] -= c[:-1, :-1] * w[..., :-1, :-1]
    out[..., :-1, :-1] -= c[:-1, :-1] * w[..., 1:, 1:]
    return out


@functools.lru_cache(maxsize=None)
def _laplacian_pinv(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pseudoinverse of the Laplacian over the wrapped diagonals of w and w^T.

    Returns (stack, gather, scatter).  Wrapped diagonal k of w is
    w[i, (i+k) % N], i = 0..N-1: the diagonal w[i, i+k] of length N-k
    followed by the diagonal w[i, i+k-N] of length k.  The Laplacian
    applies a symmetric tridiagonal T_j to diagonal j and never couples
    the two parts (at the seam the coupling is c[N-k-1, N-1] = 0), so
    on wrapped diagonal k it is blockdiag(T_k, T_{N-k}); d and c are
    symmetric, so diagonals j and -j share T_j.  Wrapped diagonal k of
    w^T (w's wrapped diagonal N-k, rolled by k) holds diagonals -k and
    N-k and meets the same two blocks, so k = 0..N//2 covers all of w:
    stack[k] is the real N x N inverse of blockdiag(T_k, T_{N-k}), all
    N//2 + 1 of them from one batched LU inverse.

    T_0 is singular: it is symmetric, its kernel is spanned by the ones
    vector e (the identity matrix's diagonal) and every other eigenvalue
    is l(l+1) >= 2.  Adding J/N = e e^T / N gives e the eigenvalue 1
    and leaves e's complement alone, so pinv(T_0) = inv(T_0 + J/N) - J/N
    exactly, with no eigenvalue threshold.

    w.ravel()[gather] is the (N//2 + 1, N, 2) array of wrapped diagonal
    k of w (column 0) and of w^T (column 1); x.ravel()[scatter] puts
    such an array back as N x N from each entry's first slot in gather
    (diagonal 0, and +-N/2 for even N, fill two slots that solve alike).
    """
    d, c = _laplacian_coefficients(N)
    rows = np.arange(N)
    cols = (rows + np.arange(N // 2 + 1)[:, None]) % N
    stack = np.zeros((N // 2 + 1, N, N))
    stack[:, rows, rows] = d[rows, cols]
    off = -c[rows[:-1], cols[:, :-1]]
    stack[:, rows[:-1], rows[1:]] = off
    stack[:, rows[1:], rows[:-1]] = off
    stack[0] += 1.0 / N
    stack = np.linalg.inv(stack)
    stack[0] -= 1.0 / N
    gather = np.stack([rows * N + cols, cols * N + rows], axis=-1)
    scatter = np.unique(gather, return_index=True)[1].reshape(N, N)
    for arr in (stack, gather, scatter):
        arr.setflags(write=False)
    return stack, gather, scatter


def zeitlin_laplacian_inv(w: np.ndarray) -> np.ndarray:
    """Solve laplacian(p) = w for traceless w, all diagonals in one matmul.

    Raises ValueError when the input has a trace beyond roundoff scale,
    since the identity component is not in the operator's range.
    """
    trace_residual = abs(complex(_trace(w)))
    if trace_residual > 1e-10 * (1.0 + _frobenius(w)):
        raise ValueError(f"inverse Laplacian needs traceless input (|tr| = {trace_residual:.3e})")
    return _apply_laplacian_pinv(w)


def _apply_laplacian_pinv(w: np.ndarray) -> np.ndarray:
    """The pseudoinverse applied to w, or to each matrix of a stack, without the trace check.

    Pairs wrapped diagonal k of w with wrapped diagonal k of w^T, which
    meet the same block: one batched product of N//2 + 1 blocks against
    (N, 4) real columns, scattered back in one gather.
    """
    N, lead = w.shape[-1], w.shape[:-2]
    stack, gather, scatter = _laplacian_pinv(N)
    diagonals = np.ascontiguousarray(_take_last(w.reshape(*lead, N * N), gather), dtype=complex)
    # Real blocks act on real and imaginary parts alike: view the two
    # complex columns as four real ones (re, im of w; re, im of w^T).
    solved = stack @ diagonals.view(np.float64).reshape(*lead, N // 2 + 1, N, 4)
    return _take_last(solved.view(complex).reshape(*lead, -1), scatter)


def _take_last(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x[..., index]; plain indexing of a 1-D x is the faster call."""
    return x[index] if x.ndim == 1 else x.take(index, axis=-1)


class ZeitlinSphere(IsospectralSystem):
    """Spin-truncated vorticity flow on su(N).

    The default reading turns vorticity into a stream matrix with the
    inverse Laplacian, the interpretation under which the stated
    kinetic energy is conserved; `forward_laplacian=True` applies the
    forward operator instead, for comparison runs (a legal isospectral
    flow, but for a different quadratic energy).

    The generator used by the steppers is (grad H)^dagger.  For the
    inverse reading that is -N^{3/2} laplacian_inv(w) on skew-Hermitian
    states: the conjugate transpose flips the stream matrix's sign,
    which fixes the flow's orientation; the finite-difference check on
    grad H pins the gradient itself.

    Odd-order traces of skew-Hermitian matrices are purely imaginary,
    so the casimir_3 and casimir_5 diagnostics record the imaginary
    part (the real part is identically zero), while even orders record
    the real part; see `casimirs`.

    The context is su(N), a unitary one, so each conjugation update is
    C mu C^dagger with C = cay(h_i B(mu_c)): one solve, not two.  B is
    not projected onto su(N) there, so a B with a Hermitian part shows
    as spectral drift.
    """

    name = "zeitlin"
    casimir_orders = (2, 3, 4, 5)

    def __init__(self, N: int = 17, forward_laplacian: bool = False):
        self.n = self.N = N = _sphere_size(N)
        self.context = special_unitary_structure(N)
        self.forward_laplacian = bool(forward_laplacian)
        if forward_laplacian:
            self._operator = zeitlin_laplacian
        else:
            _laplacian_pinv(N)  # precompute; instances stay immutable after this
            self._operator = _apply_laplacian_pinv
        self._scale = N ** 1.5

    def _stream(self, w: np.ndarray) -> np.ndarray:
        # Implicit stage iterates drift O(h^2) off su(N) along the identity, the
        # Laplacian's kernel; the pseudoinverse's k = 0 block annihilates it as
        # well, so that trace drift never reaches the stream.
        return self._scale * self._operator(w)

    def hamiltonian(self, w: np.ndarray) -> float:
        # trace(stream^H w) as one dot product per matrix; contiguous rows
        # keep a stack's bits equal to its matrices' (strides pick the BLAS kernel).
        lead = w.shape[:-2]
        stream, w = np.ascontiguousarray(self._stream(w)), np.ascontiguousarray(w)
        return _float(0.5 * np.real(np.vecdot(stream.reshape(*lead, -1), w.reshape(*lead, -1))))

    def grad_hamiltonian(self, w: np.ndarray) -> np.ndarray:
        return self._stream(w)

    def B(self, w: np.ndarray) -> np.ndarray:
        # (grad H)^dagger; the stream matrix is fresh, so conjugate in place.
        stream = self._stream(w)
        return np.conjugate(stream, out=stream).T

    def initial_state(self, seed: int, scale: float = 1.0) -> np.ndarray:
        w = random_algebra_element(self.context, seed, 1.0)
        return _real(scale, "scale", "positive and finite") * (w / _frobenius(w))
