"""Quadratic matrix Lie groups, their algebras, and the Cayley transform.

A quadratic group is the set of invertible matrices g satisfying
g^dagger J g = J for a fixed invertible matrix J; its Lie algebra
consists of the matrices xi with J xi + xi^dagger J = 0.  Orthogonal,
unitary, and symplectic groups all arise this way.  The Cayley
transform

    cay(xi) = (I - xi/2)^{-1} (I + xi/2)

maps the algebra into the group exactly (no series truncation, one
linear solve per application).  The isospectral update conjugates by
it, cay(xi) x cay(xi)^{-1}: two solves, or in a unitary context one
solve and two products, C x C^dagger with C = cay(xi), since
cay(xi)^{-1} = cay(xi)^dagger for skew-Hermitian xi.  Given only the
stage matrix mu_c and defect d of the converged stage that produced xi,
a unitary update takes no solve: x + [xi, mu_c - d], the stage's dcay
product minus its defect carried through cay(xi) to first order, two
products (`cayley_conjugate`, whose gates take their norms from xi, x
and d).  xi is not projected onto the algebra, so a Hermitian part
shows as spectral drift.  Its right-trivialized differential and the
inverse of that differential are

    dcay_xi(eta)     = (I - xi/2)^{-1} eta (I + xi/2)^{-1}
    dcay_inv_xi(eta) = (I - xi/2) eta (I + xi/2)

and satisfy dcay_xi o dcay_inv_{-xi} = Ad_{cay(xi)}.  These maps are
the only group-level operations the integrators need.

All routines act on plain ndarrays.  The QuadraticStructure context is
consulted only for membership residuals and random sampling; nothing
here enforces membership at runtime.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SplitMix64",
    "QuadraticStructure",
    "orthogonal_structure",
    "special_unitary_structure",
    "commutator",
    "frobenius_pairing",
    "cayley",
    "dcay",
    "dcay_inv",
    "cayley_conjugate",
    "spectrum",
    "membership_residuals",
    "random_algebra_element",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic random stream with 64 bits of state.

    The generator is SplitMix64: state advances by the odd constant
    0x9e3779b97f4a7c15 and each output mixes the advanced state through
    two xorshift-multiply rounds (constants 0xbf58476d1ce4e5b9 and
    0x94d049bb133111eb, shifts 30/27/31).  Doubles take the top 53 bits
    of the mixed word.  Because the state after k draws is just
    seed + k*gamma mod 2^64, blocks of draws vectorize with uint64
    arithmetic.  The point of carrying our own dozen-line generator is
    bit-identical streams on every platform and library version, which
    keeps seeded trajectories and their CSVs exactly reproducible.  The
    seed is any integer, taken mod 2^64; a fraction, string or None raises ValueError.
    """

    def __init__(self, seed: int):
        self._count = 0
        self._seed = _count(seed, -math.inf, "seed") & _MASK64

    def _mixed_block(self, count: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        z = np.uint64(self._seed) + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniform(self, shape=None) -> np.ndarray | float:
        """Uniform doubles in [-1, 1), advancing the stream one per entry."""
        if shape is None:
            return float(self.uniform((1,))[0])
        count = int(np.prod(shape))
        u01 = (self._mixed_block(count) >> np.uint64(11)) * 2.0 ** -53
        return (2.0 * u01 - 1.0).reshape(shape)


@dataclass(frozen=True, eq=False)
class QuadraticStructure:
    """Membership context for one quadratic group/algebra pair.

    J is the defining matrix (identity for orthogonal and unitary
    types, the canonical skew matrix for symplectic).  The scalar kind
    of the algebra is taken from J's dtype: a complex J means complex
    entries are admissible.  `traceless` additionally restricts the
    algebra to trace-free matrices (su(N) rather than u(N)).

    `identity_j` (J = I) and `unitary` (J = I with a complex J: u(n) or
    su(n)) are computed on first use and then kept, so a per-stage test
    is an attribute read and building a context costs no comparison.
    """

    n: int
    J: np.ndarray
    traceless: bool = False

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128) if np.iscomplexobj(self.J) else np.dtype(np.float64)

    @functools.cached_property
    def identity_j(self) -> bool:
        return bool(np.array_equal(self.J, np.eye(self.n)))

    @functools.cached_property
    def unitary(self) -> bool:
        return self.identity_j and np.iscomplexobj(self.J)

    def algebra_residual(self, x: np.ndarray):
        """||J x + x^dagger J||_F, plus |trace x| when traceless: a float, or an array (...) for a stack."""
        # J = I skips the products, which would turn an inf entry into NaN (0 * inf).
        xd = x.conj().mT
        residual = _frobenius(x + xd if self.identity_j else self.J @ x + xd @ self.J)
        if self.traceless:
            trace = _trace(x)
            residual = residual + np.hypot(trace.real, trace.imag)
        return float(residual) if x.ndim == 2 else residual


def orthogonal_structure(n: int) -> QuadraticStructure:
    """Context for so(n): real matrices with xi + xi^T = 0."""
    return QuadraticStructure(n, np.eye(n), traceless=False)


def special_unitary_structure(n: int) -> QuadraticStructure:
    """Context for su(n): traceless skew-Hermitian matrices."""
    return QuadraticStructure(n, np.eye(n, dtype=complex), traceless=True)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.dot(b) - b.dot(a)


def frobenius_pairing(a: np.ndarray, b: np.ndarray):
    """Frobenius pairing <a, b> = trace(a^dagger b)."""
    return _trace(np.asarray(a).conj().T @ b)


def _trace(w: np.ndarray):
    # A contiguous copy sums each diagonal as np.trace does; an F-ordered stack in place would not.
    return np.ascontiguousarray(np.diagonal(w, 0, -2, -1)).sum(-1)


def _frobenius(x: np.ndarray):
    """numpy.linalg.norm of x without its wrapper: a float, or an array (...) for a stack (..., n, n).

    Sums as norm does, in ravel(order="K") order (each matrix's own in a
    stack), with one dot each of the real and imaginary parts.
    """
    if x.ndim < 3:
        v = x.ravel(order="K")
        if v.dtype.kind == "c":
            return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
        return math.sqrt(v.dot(v))
    if abs(x.strides[-1]) > abs(x.strides[-2]):
        x = x.mT
    v = np.ascontiguousarray(x.reshape(*x.shape[:-2], -1))
    return np.sqrt(sum(np.vecdot(part, part) for part in ((v.real, v.imag) if v.dtype.kind == "c" else (v,))))


def _count(value, minimum: int, name: str) -> int:
    """The one rule for count arguments: value as an int (an int or numpy integer, never a fraction) >= minimum."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {count}")
    return count


# What each rule holds a real argument to, keyed by the words its error message uses.
_REAL_RULES = {"finite": math.isfinite, "finite and nonzero": lambda x: x != 0.0 and math.isfinite(x),
               "positive and finite": lambda x: 0.0 < x < math.inf}


def _real(value, name: str, rule: str = "finite") -> float:
    """The one rule for real arguments: value as a float (a real scalar or 0-d real array) that keeps rule."""
    if type(value) is not float:  # a Python float, as every macro step passes, needs no type test
        if not (isinstance(value, numbers.Real) or isinstance(value, np.ndarray) and value.shape == ()
                and value.dtype.kind in "biuf"):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not _REAL_RULES[rule](value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


@functools.lru_cache(maxsize=None)
def _identity(n: int, dtype: np.dtype) -> np.ndarray:
    return np.broadcast_to(np.eye(n, dtype=dtype), (n, n))  # a read-only view, safe to share


def _half_factors(xi: np.ndarray):
    xi = np.asarray(xi)
    eye = _identity(xi.shape[0], np.result_type(xi.dtype, np.float64))
    half = 0.5 * xi
    return eye - half, eye + half


def _solve_right(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    # X solving X m = a; plain transposes keep this valid over C.
    return np.linalg.solve(m.T, a.T).T


def cayley(xi: np.ndarray) -> np.ndarray:
    """cay(xi) = (I - xi/2)^{-1} (I + xi/2).

    Lands in the group of the context whose algebra contains xi.
    Raises numpy.linalg.LinAlgError when I - xi/2 is singular, which
    for stepped flows signals a step size too large for the Cayley
    chart.
    """
    lo, hi = _half_factors(xi)
    return np.linalg.solve(lo, hi)


def dcay(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Right-trivialized differential of cay at xi applied to eta."""
    lo, hi = _half_factors(xi)
    return _solve_right(np.linalg.solve(lo, eta), hi)


def dcay_inv(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Inverse of dcay at xi applied to eta: (I - xi/2) eta (I + xi/2)."""
    lo, hi = _half_factors(xi)
    return lo.dot(eta).dot(hi)


# Gate 1 of the stage form of the unitary update (`cayley_conjugate`): a
# Hermitian part xi + xi^dagger above this share of ||xi||_F is
# a B off the algebra (clean su(N) stages read 1e-15 or less, the leaking
# Bs of the tests about 1e-6).
_SKEW_SHARE = 1e-12
# Machine epsilon: gate 2's roundoff level, and the least solver_tol.
_EPS = float(np.finfo(float).eps)


def _stage_form(xi, x, mu_c, d):
    """x + [xi, mu_c - d] from the stage (I - X) mu_c (I + X) = x + d, X = xi/2, or None where a gate fails.

        (I + X) mu_c (I - X) = (I - X) mu_c (I + X) + 2 [X, mu_c] = x + d + 2 [X, mu_c], so
        (I + X) mu_c (I - X) - d - 2 (X d - d X) = x + 2 [X, mu_c - d]: two products, no solve.

    With the commuting factors I - X and I + X, cay(xi) x cay(xi)^{-1} is
    exactly (I + X) mu_c (I - X) - cay(xi) d cay(xi)^{-1}.  With r = ||X||_2
    (at most ||X||_F), cay(xi) = I + 2X + E and cay(xi)^{-1} = I - 2X + F,
    where E = 2 X^2 (I - X)^{-1} and F = 2 X^2 (I + X)^{-1} have 2-norms
    of at most 2 r^2 / (1 - r), and ||cay(xi)^{-1}||_2 <= (1 + r) / (1 - r).
    The last term is then d + 2 (X d - d X) plus a remainder
    R = -4 X d X + E d cay(xi)^{-1} + (I + 2X) d F, and for r < 1

        ||R||_F / (r^2 ||d||_F) <= c(r) = 4 + 2 (1 + r) / (1 - r)^2 + 2 (1 + 2r) / (1 - r),

    which grows with r, so it holds with ||X||_F for r as well.  Every
    norm the gates read is taken here, from the arguments.
    """
    r = 0.5 * _frobenius(xi)
    # r < 1 is tested first, so c(r) never divides by zero; each test is
    # written as not (bound <= limit), so a NaN fails the gate too.
    if not r < 1.0:
        return None
    c = 4.0 + 2.0 * (1.0 + r) / (1.0 - r) ** 2 + 2.0 * (1.0 + 2.0 * r) / (1.0 - r)
    if not c * r * r * _frobenius(d) <= _EPS * _frobenius(x):
        return None
    # Gate 1 reads xi, by which the fallback conjugates; ||xi||_F = 2r.
    if not _frobenius(xi + xi.conj().T) <= _SKEW_SHARE * 2.0 * r:
        return None
    return x + commutator(xi, mu_c - d)


def cayley_conjugate(xi: np.ndarray, x: np.ndarray, unitary: bool = False, stage=None) -> np.ndarray:
    """cay(xi) x cay(xi)^{-1} without forming either inverse.

    Two solves, using the exact commutation of (I - xi/2) and
    (I + xi/2); the result is similar to x, so its spectrum agrees with
    x's to solve roundoff.  unitary=True (xi skew-Hermitian, as in a
    unitary context) takes one solve and two products, C x C^dagger with
    C = cay(xi) = cay(xi)^{-dagger}.  xi is not projected: a Hermitian
    part makes that a congruence, not a similarity, and it shows as
    spectral drift rather than being hidden.

    stage=(mu_c, d), read only with unitary=True, is a converged stage
    whose equation (I - X) mu_c (I + X) = x + d, X = xi/2, has defect d.
    The update is then solve-free, x + [xi, mu_c - d]: the similarity by
    cay(xi) up to a remainder of at most c(r) r^2 ||d||_F, where
    r = ||xi||_F / 2 < 1 and
    c(r) = 4 + 2 (1 + r) / (1 - r)^2 + 2 (1 + 2r) / (1 - r)
    (`_stage_form` proves it).  C x C^dagger stays where either of two
    gates fails: gate 1, xi has a Hermitian part above 1e-12 ||xi||_F (a B
    off the algebra, left to show as drift); gate 2, r >= 1 or that
    remainder bound exceeds machine epsilon times ||x||_F (a large step
    or a loose tolerance).
    """
    if unitary:
        y = None if stage is None else _stage_form(xi, x, *stage)
        if y is not None:
            return y
        c = cayley(xi)
        return c.dot(x).dot(c.conj().T)
    lo, hi = _half_factors(xi)
    a = np.linalg.solve(lo, hi.dot(x))
    return _solve_right(a, hi).dot(lo)


_REAL_TOL = 1e-9


def spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a, or of each matrix in a stack (..., n, n), in canonical order.

    Sorted by real part ascending with ties broken by imaginary part
    ascending.  Ties are detected with the relative tolerance _REAL_TOL
    = 1e-9 rather than exact comparison: conserved spectra of skew or
    skew-Hermitian matrices have real parts that are pure roundoff
    noise, and an exact lexicographic sort would let that noise swap
    conjugate pairs between successive evaluations.  Clustering the
    real parts first makes the order reproducible along a trajectory.

    A stack takes one `eigvals` call and is sorted along its last axis,
    so each slice of the (..., n) result equals that matrix's spectrum
    alone (by value: one complex spectrum makes a real stack's complex).

    Eigensolver failures propagate as numpy.linalg.LinAlgError; they
    are never swallowed.
    """
    ev = np.linalg.eigvals(np.asarray(a, dtype=np.result_type(a.dtype, np.float64)))
    ev = np.take_along_axis(ev, np.lexsort((ev.imag, ev.real), axis=-1), axis=-1)
    tol = _REAL_TOL * (1.0 + np.abs(ev).max(axis=-1, keepdims=True, initial=0.0))
    # A cluster starts at each real-part gap not within tol (NaN too); both
    # sorts are stable, so clusters keep their order and sort by imag inside.
    gaps = np.diff(ev.real, axis=-1, prepend=ev.real[..., :1])
    cluster = np.cumsum(~(gaps <= tol), axis=-1)
    return np.take_along_axis(ev, np.lexsort((ev.imag, cluster), axis=-1), axis=-1)


def membership_residuals(x: np.ndarray, context: QuadraticStructure) -> tuple[float, float]:
    """Frobenius residuals of x against the group and algebra conditions.

    Returns (group_residual, algebra_residual) where the group residual
    is ||x^dagger J x - J||_F and the algebra residual is the context's
    `algebra_residual`.  Pure measurement; nothing is enforced.
    """
    x = np.asarray(x)
    return _frobenius(x.conj().T @ context.J @ x - context.J), context.algebra_residual(x)


def random_algebra_element(context: QuadraticStructure, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded random element of the context's algebra.

    Entries are drawn uniformly from scale*[-1, 1) with SplitMix64
    (real part first, then the imaginary part for complex contexts) and
    projected onto the algebra: x -> (x - J^{-1} x^dagger J)/2, which
    for J = I is plain antisymmetrization and satisfies the membership
    condition exactly in floating point.  Traceless contexts then have
    trace(x)/n removed, which stays inside the algebra because the
    trace of a skew-Hermitian matrix is imaginary.  scale must be a
    positive, finite real.
    """
    rng = SplitMix64(seed)
    n = context.n
    scale = _real(scale, "scale", "positive and finite")
    raw = scale * rng.uniform((n, n))
    if context.dtype == np.complex128:
        raw = raw + 1j * (scale * rng.uniform((n, n)))
    if context.identity_j:
        x = (raw - raw.conj().T) / 2.0
    else:
        x = (raw - np.linalg.solve(context.J, raw.conj().T @ context.J)) / 2.0
    if context.traceless:
        x = x - (_trace(x) / n) * np.eye(n, dtype=x.dtype)
    return x
