"""Seeded property tests of the Cayley maps, the stacked canonical
spectrum and the inverse Laplacian.

Hypothesis draws the sizes, scales and seeds; derandomize=True makes
every run draw the same examples, so a failure reproduces exactly.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isork.quadlie import SplitMix64, cayley, cayley_conjugate, dcay, dcay_inv, spectrum  # noqa: E402
from isork.systems import zeitlin_laplacian_inv  # noqa: E402
from test_quadlie import _loop_spectrum  # noqa: E402
from test_systems import _per_diagonal_laplacian_inv  # noqa: E402

SEEDED = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def _matrix(seed, n, complex_entries):
    u = SplitMix64(seed).uniform((2, n, n))
    return u[0] + 1j * u[1] if complex_entries else u[0]


@st.composite
def cayley_cases(draw):
    """(xi, x): xi in so(n) or u(n) with entries up to `scale`, x any matrix."""
    n = draw(st.integers(2, 6))
    complex_entries = draw(st.booleans())
    scale = draw(st.floats(0.0, 4.0))
    seed = draw(st.integers(0, 2**32))
    a = _matrix(seed, n, complex_entries)
    xi = scale * (a - a.conj().T) / 2.0
    return xi, _matrix(seed + 1, n, complex_entries)


@SEEDED
@given(cayley_cases())
def test_cayley_conjugate_is_a_similarity(case):
    xi, x = case
    c = cayley(xi)
    y = cayley_conjugate(xi, x)
    assert np.linalg.norm(y @ c - c @ x) <= 1e-12 * (1.0 + np.linalg.norm(x))


@SEEDED
@given(cayley_cases())
def test_dcay_inverts_dcay_inv(case):
    xi, eta = case
    assert np.linalg.norm(dcay(xi, dcay_inv(xi, eta)) - eta) <= 1e-12 * (1.0 + np.linalg.norm(eta))


@SEEDED
@given(cayley_cases())
def test_dcay_after_dcay_inv_of_negated_is_adjoint(case):
    # dcay_xi o dcay_inv_{-xi} = Ad_{cay(xi)}.
    xi, eta = case
    c = cayley(xi)
    got = dcay(xi, dcay_inv(-xi, eta))
    assert np.linalg.norm(got @ c - c @ eta) <= 1e-12 * (1.0 + np.linalg.norm(eta))


@st.composite
def spectrum_stacks(draw):
    """(K, n, n) stacks with K <= 5 and n <= 6, real or complex.

    Each matrix is block diagonal: 2x2 blocks [[a, b], [-b, a]] give
    exact conjugate pairs a +- ib, 1x1 blocks real eigenvalues (shifted
    by an imaginary c in complex stacks).  Real parts come from three
    levels plus a jitter, far below or near spectrum's tolerance, so
    clusters of near-equal real parts are common.  Every other matrix
    is scaled by 8, which scales its tolerance.  Some stacks are turned
    by a Cayley similarity, orthogonal or unitary.
    """
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    complex_entries = draw(st.booleans())
    turned = draw(st.booleans())
    jitter = draw(st.sampled_from([0.0, 1e-15, 1e-12, 2e-9]))
    u = SplitMix64(draw(st.integers(0, 2**32))).uniform((k, 4, n))
    levels = np.array([-0.5, 0.0, 0.75])[(3 * (u[:, 0] + 1) / 2).astype(int)]
    stack = np.zeros((k, n, n), dtype=complex if complex_entries else float)
    for m in range(k):
        i = 0
        while i < n:
            a = levels[m, i] + jitter * u[m, 1, i]
            if i + 1 < n and u[m, 2, i] > 0:
                b = u[m, 3, i]
                stack[m, i : i + 2, i : i + 2] = [[a, b], [-b, a]]
                i += 2
            else:
                stack[m, i, i] = a + (1j * u[m, 3, i] if complex_entries else 0.0)
                i += 1
        if turned:
            g = _matrix(int(1e6 * (u[m, 3, 0] + 1)), n, complex_entries)
            stack[m] = cayley_conjugate((g - g.conj().T) / 2.0, stack[m])
        stack[m] *= 8.0 ** (m % 2)
    return stack


@SEEDED
@given(spectrum_stacks())
def test_stacked_spectrum_matches_each_matrix_and_the_loop(stack):
    got = spectrum(stack)
    assert got.shape == stack.shape[:-1]
    for k in range(stack.shape[0]):
        assert np.array_equal(got[k], spectrum(stack[k]))
        assert np.array_equal(got[k], _loop_spectrum(stack[k]))


@SEEDED
@given(st.integers(2, 33), st.integers(0, 2**32))
def test_inverse_laplacian_matches_per_diagonal_reference(N, seed):
    w = _matrix(seed, N, True)
    w.flat[:: N + 1] -= np.trace(w) / N
    ref = _per_diagonal_laplacian_inv(w)
    assert np.linalg.norm(zeitlin_laplacian_inv(w) - ref) <= 1e-13 * np.linalg.norm(ref)
