"""Seeded property tests of the Cayley maps, the complex stage defect,
the stacked canonical spectrum, the inverse Laplacian, the Frobenius
norm helper and the stacked system measurements.

Hypothesis draws the sizes, scales and seeds; derandomize=True makes
every run draw the same examples, so a failure reproduces exactly.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isork.integrator import _stage_sweep  # noqa: E402
from isork.quadlie import (  # noqa: E402
    SplitMix64,
    _frobenius,
    cayley,
    cayley_conjugate,
    dcay,
    dcay_inv,
    random_algebra_element,
    special_unitary_structure,
    spectrum,
)
from isork.systems import (  # noqa: E402
    RigidBody,
    TodaExtended,
    ZeitlinSphere,
    casimirs,
    toda_extended_B,
    zeitlin_laplacian_inv,
)
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
@given(st.integers(2, 8), st.floats(0.0, 4.0), st.integers(0, 2**32))
def test_unitary_cayley_conjugate_keeps_spectrum_and_algebra(n, scale, seed):
    # C x C^dagger with C = cay(xi), xi and x in su(n): a unitary similarity.
    ctx = special_unitary_structure(n)
    xi = scale * random_algebra_element(ctx, seed)
    x = random_algebra_element(ctx, seed + 1)
    y = cayley_conjugate(xi, x, unitary=True)
    bound = 1e-13 * (1.0 + np.linalg.norm(x))
    assert np.abs(spectrum(y) - spectrum(x)).max() <= bound
    assert np.linalg.norm(y + y.conj().T) <= bound


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
@given(st.integers(2, 9), st.floats(-1.0, 1.0), st.integers(0, 2**32))
def test_complex_stage_defect_assumes_no_algebra(N, a, seed):
    # A complex stage's two-product sweep takes the stage equation's defect
    # for any complex mu and mu_prev: mu is off su(N) (neither
    # skew-Hermitian nor traceless), and B is Zeitlin's.
    sys = ZeitlinSphere(N)
    mu, mu_prev = _matrix(seed, N, True), _matrix(seed + 1, N, True)
    assert sys.state_residual(mu) > 0.1 * np.linalg.norm(mu)
    (_, b, _), gx, residual = _stage_sweep(mu_prev, a, sys.B)(mu)
    eye = np.eye(N)
    ref = (eye - a * b) @ mu @ (eye + a * b) - mu_prev
    bound = 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm((mu - gx) - ref) <= bound
    assert abs(residual - np.linalg.norm(ref)) <= bound


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


def _reference_casimirs(w, orders):
    """The one-matrix Casimir loop as it was before stacks."""
    out = []
    p = np.eye(w.shape[0], dtype=np.result_type(w.dtype, np.float64))
    k_prev = 0
    for k in orders:
        if k < k_prev:
            p = np.linalg.matrix_power(w, k)
        else:
            for _ in range(k - k_prev):
                p = p @ w
        k_prev = k
        tr = np.trace(p)
        out.append(float(tr.imag if np.iscomplexobj(w) and k % 2 else tr.real))
    return out


def _reference_measurements(system, w):
    """(energy, Casimirs, residual) of one matrix by the formulas before stacks."""
    if isinstance(system, RigidBody):
        return (
            0.5 * float(np.trace((system._iinv @ w).T @ w)),
            [float(np.linalg.norm(w) ** 2)],
            float(np.linalg.norm(w + w.T)),
        )
    if isinstance(system, TodaExtended):
        energy = float(-np.trace(w.T @ toda_extended_B(w)) + 2.0 * np.trace(w @ w))
        return energy, _reference_casimirs(w, system.casimir_orders), float(np.linalg.norm(w - w.T))
    return (
        0.5 * float(np.real(np.vdot(system.grad_hamiltonian(w), w))),
        _reference_casimirs(w, system.casimir_orders),
        float(np.linalg.norm(w + w.conj().T)) + abs(complex(np.trace(w))),
    )


def _laid_out(stack, layout):
    """The stack in C order, in F order, or with every matrix transposed."""
    if layout == "F":
        return np.asfortranarray(stack)
    if layout == "T":
        return np.ascontiguousarray(stack.mT).mT
    return stack


@st.composite
def norm_stacks(draw):
    """(K, n, n) stacks with K <= 5 and 0 <= n <= 6, real or complex, in each layout."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, 6))
    stack = _matrix(draw(st.integers(0, 2**32)), k * n, draw(st.booleans()))[: k * n, :n]
    stack = stack.reshape(k, n, n) * 10.0 ** draw(st.integers(-3, 3))
    return _laid_out(stack, draw(st.sampled_from("CFT")))


@SEEDED
@given(norm_stacks())
def test_frobenius_is_norm_on_each_matrix_and_on_the_stack(stack):
    # norm(x, axis=(-2, -1)) sums in another order: the last bit moves.
    got = _frobenius(stack)
    assert got.shape == stack.shape[:-2]
    for k in range(stack.shape[0]):
        ref = repr(float(np.linalg.norm(stack[k])))
        assert repr(_frobenius(stack[k])) == ref
        assert repr(float(got[k])) == ref


@st.composite
def system_stacks(draw):
    """(system, stack): K <= 5 states of a builtin system in one layout.

    Each matrix is a seeded general matrix, a state of the system's
    algebra (skew; traceless skew-Hermitian on the sphere), such a
    state plus a multiple of the identity (a stage iterate off the
    traceless slice), or zeros of either sign; some get one NaN or inf
    entry, and matrices alternate scales 1 and 8.  Rigid body and Toda
    stacks are real, Zeitlin stacks real or complex, so their traces
    are zero for some matrices and not for others.
    """
    name = draw(st.sampled_from(["rigid", "toda", "zeitlin", "forward"]))
    if name == "rigid":
        system = RigidBody((1.0, 2.0, 3.5))
    elif name == "toda":
        system = TodaExtended(draw(st.integers(3, 6)))
    else:
        system = ZeitlinSphere(draw(st.integers(2, 9)), forward_laplacian=name == "forward")
    n = system.n
    complex_entries = isinstance(system, ZeitlinSphere) and draw(st.booleans())
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32))
    stack = np.zeros((k, n, n), dtype=complex if complex_entries else float)
    for m in range(k):
        kind = draw(st.sampled_from(["general", "algebra", "shifted", "+0", "-0"]))
        if kind == "general":
            stack[m] = _matrix(seed + m, n, complex_entries)
        elif kind in ("algebra", "shifted"):
            x = random_algebra_element(system.context, seed + m)
            stack[m] = x if complex_entries or not np.iscomplexobj(x) else x.real
            if kind == "shifted":
                stack[m] += _matrix(seed - m, 1, complex_entries)[0, 0] * np.eye(n)
        elif kind == "-0":
            stack[m] = -0.0
        bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
        if bad is not None:
            stack[m, seed % n, (seed // n) % n] = bad
        stack[m] *= 8.0 ** (m % 2)
    return system, _laid_out(stack, draw(st.sampled_from("CFT")))


@settings(SEEDED, max_examples=100)
@given(system_stacks())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_measurements_equal_each_matrix(case):
    # The Zeitlin trace modulus must be hypot, as abs(complex) is:
    # np.abs of a complex trace differs in the last bit.  The stream
    # matrices behind the Zeitlin energy must match byte for byte, zero
    # signs included.
    system, stack = case
    energy = system.hamiltonian(stack)
    cas = system.casimirs(stack)
    residual = system.state_residual(stack)
    k = stack.shape[0]
    assert energy.shape == residual.shape == (k,)
    assert cas.shape == (k, len(system.casimir_orders))
    for m in range(k):
        w = stack[m]
        assert repr(float(energy[m])) == repr(system.hamiltonian(w))
        assert repr(cas[m].tolist()) == repr(system.casimirs(w))
        assert repr(float(residual[m])) == repr(system.state_residual(w))
        assert repr((system.hamiltonian(w), system.casimirs(w), system.state_residual(w))) == repr(
            _reference_measurements(system, w)
        )
        if isinstance(system, ZeitlinSphere):
            assert system.grad_hamiltonian(stack)[m].tobytes() == system.grad_hamiltonian(w).tobytes()


@SEEDED
@given(norm_stacks(), st.sampled_from([(2,), (2, 3, 4), (3, 2), (2, 5, 3), (3, 2, 3)]))
def test_stacked_casimirs_equal_each_matrix(stack, orders):
    got = casimirs(stack, orders)
    assert got.shape == stack.shape[:-2] + (len(orders),)
    for k in range(stack.shape[0]):
        assert repr(got[k].tolist()) == repr(casimirs(stack[k], orders)) == repr(_reference_casimirs(stack[k], orders))


def test_stacked_zeitlin_residual_takes_the_trace_modulus_by_hypot():
    # np.abs of a complex trace differs from abs(complex) in the last bit
    # for about a third of traces, and the Frobenius term hides half of
    # that; 40 states off the traceless slice catch a stack that uses it.
    system = ZeitlinSphere(5)
    shifted = [random_algebra_element(system.context, s) + _matrix(s, 1, True)[0, 0] * np.eye(5) for s in range(40)]
    got = system.state_residual(np.stack(shifted))
    assert [repr(float(r)) for r in got] == [repr(_reference_measurements(system, w)[2]) for w in shifted]
