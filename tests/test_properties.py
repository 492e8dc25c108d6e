"""Seeded property tests of the Cayley maps and the inverse Laplacian.

Hypothesis draws the sizes, scales and seeds; derandomize=True makes
every run draw the same examples, so a failure reproduces exactly.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isork.quadlie import SplitMix64, cayley, cayley_conjugate, dcay, dcay_inv  # noqa: E402
from isork.systems import zeitlin_laplacian_inv  # noqa: E402
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


@SEEDED
@given(st.integers(2, 33), st.integers(0, 2**32))
def test_inverse_laplacian_matches_per_diagonal_reference(N, seed):
    w = _matrix(seed, N, True)
    w.flat[:: N + 1] -= np.trace(w) / N
    ref = _per_diagonal_laplacian_inv(w)
    assert np.linalg.norm(zeitlin_laplacian_inv(w) - ref) <= 1e-13 * np.linalg.norm(ref)
