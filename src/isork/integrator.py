"""Isospectral SDIRK steppers and reference integrators.

One macro step of size h chains the tableau's implicit midpoint
substeps h_i = h * b_i over the staggered grid of half points
mu_{r_0} = mu_n, ..., mu_{r_s} = mu_{n+1}, with r_i = b_1 + ... + b_i,
and stage points at the fractions c_i = r_{i-1} + b_i / 2.  For
substep size h_i the stage matrix mu_c solves

    (I - (h_i/2) B(mu_c)) mu_c (I + (h_i/2) B(mu_c)) = mu_prev

by fixed-point iteration.  The stopping test is the norm of the stage
defect, which has two arithmetics, one for a real stage and one for a
complex stage.  A real stage (rigid body, Toda) forms it in three
products, mu - a (B mu - mu B) - a^2 (B mu) B - mu_prev with a = h_i/2
and B = B(mu), because the golden CSV pins those bits; a complex stage
(Zeitlin's su(N)) in two, (mu - a B mu)(I + a B) - mu_prev.  Neither
assumes a structure of mu or B.

The next half point is either

    dcay form:     (I + (h_i/2) B(mu_c)) mu_c (I - (h_i/2) B(mu_c))
    conjugation:   cay(h_i B(mu_c)) mu_prev cay(h_i B(mu_c))^{-1}

The two coincide exactly at the true stage solution; with a finitely
converged stage the conjugation form is still an exact similarity, so
it conserves spectra and trace Casimirs to roundoff regardless of the
solver residual, while the dcay form leaks at the residual level.  The
right-invariant variant swaps the signs of both halves, which is the
same arithmetic as stepping with -h_i.

The conjugation takes two solves, except when the system's context is
unitary (J = I with a complex J, as for su(N)).  There the update takes
the converged stage's mu_c and defect d, and mu_prev + [xi, mu_c - d],
xi = h_i B(mu_c), is the similarity without a solve, up to a remainder
below roundoff; where one of two gates turns that away, it is
C mu_prev C^dagger with C = cay(h_i B(mu_c)), one solve and two products
(`quadlie.cayley_conjugate`).  xi is not projected onto the algebra, so
a B that leaves it shows as spectral drift.  A system without a
context, and every other context, keeps two solves.

Three loops serve every stepper.  `_fixed_point` is the sweep loop of
every implicit solve (the reduced stage, the Cayley half-step stage
and the cotangent increments): plain sweeps, then chord steps for a
small real reduced stage, or Anderson mixing.
`_chain` runs a substage callable over the tableau's h_i, for the
reduced and the cotangent stepper alike, and sets the stage index in
place on a failure.  `_drive` is the macro-step loop, here and in the
diagnostics module, over a step(mu) -> (mu_next, stages) callable;
only it sets the step index.

Also here: the cotangent-bundle formulation of the same scheme (stage
increments on group and momentum factors, reduced back through
mu = g^dagger p), used as an independent cross-check of the reduced
stepper; a Cayley implicit half-step baseline that is symplectic but
not isospectral; and classical RK4 applied entrywise, which respects
neither spectra nor the algebra and serves as the obstruction
baseline.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field

import numpy as np

from .quadlie import _EPS, _count, _frobenius, _half_factors, _real, cayley_conjugate, commutator, dcay_inv
from .tableau import BUILTIN_TABLEAUS, SdirkTableau

__all__ = [
    "StepperConfig",
    "StageState",
    "CotangentState",
    "CotangentStage",
    "NonConvergenceError",
    "StageLinAlgError",
    "solve_stage",
    "isospectral_sdirk_step",
    "run_trajectory",
    "cotangent_lift",
    "momentum_map",
    "cotangent_sdirk_step",
    "gawlik_step",
    "classical_rk4_step",
]

_VARIANT_SIGNS = {"left": 1.0, "right": -1.0}
_UPDATE_FORMS = ("conjugation", "dcay")


class _Located:
    """A stepping failure's step, stage and member, set in place by `_located`.

    The member is what a caller of several runs was running (a compare
    method, a convergence step size).  str formats the class's _message
    and ends in "(for <member>)"; args stays the constructor's, so it pickles.
    """

    step = stage = member = None

    def __str__(self):
        where = "" if self.step is None else f" at step {self.step}"
        where += "" if self.stage is None else f" stage {self.stage}"
        text = self._message.format(e=self, where=where)
        return text if self.member is None else f"{text} (for {self.member})"


def _located(exc, **where):
    """exc with where's step, stage or member set in place; a plain LinAlgError becomes a StageLinAlgError."""
    if not isinstance(exc, _Located):
        exc = StageLinAlgError(str(exc))
    vars(exc).update(where)
    return exc


class NonConvergenceError(_Located, RuntimeError):
    """Fixed-point stage solve failed to reach tolerance.

    Raised when the stage defect turns non-finite or stays above
    tolerance after solver_max_iters sweeps.  Anderson mixing widens
    the range of step sizes that converge, but too large a step still
    diverges; halving it restores convergence.  The stepping loops set
    stage and step in place, and callers abort the run there.
    """

    _message = "stage solve did not converge{where}: residual {e.residual:.3e} after {e.iters} iterations"

    def __init__(self, iters: int, residual: float):
        super().__init__(iters, residual)
        self.iters, self.residual = iters, residual


class StageLinAlgError(_Located, np.linalg.LinAlgError):
    """A LinAlgError raised while stepping, with where it happened.

    Still a LinAlgError, so handlers of that keep catching it; the
    stepping loops set stage and step in place as on NonConvergenceError:
    "numerical error at step n stage i: <reason>".
    """

    _message = "numerical error{where}: {e.reason}"

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class StepperConfig:
    """Solver and update-form choices for the isospectral steppers.

    solver_tol is a finite real of at least machine epsilon (no stage can
    hold its defect below roundoff) and solver_max_iters an integer >= 1.
    """

    variant: str = "left"
    update_form: str = "conjugation"
    solver_tol: float = 1e-13
    solver_max_iters: int = 200
    tableau: SdirkTableau = field(default_factory=lambda: BUILTIN_TABLEAUS["midpoint"])

    def __post_init__(self):
        if self.variant not in _VARIANT_SIGNS:
            raise ValueError(f"variant must be one of {sorted(_VARIANT_SIGNS)}, got {self.variant!r}")
        if self.update_form not in _UPDATE_FORMS:
            raise ValueError(f"update_form must be one of {_UPDATE_FORMS}, got {self.update_form!r}")
        if _real(self.solver_tol, "solver_tol") < _EPS:
            raise ValueError(f"solver_tol must be finite and at least {_EPS!r}, got {self.solver_tol}")
        _count(self.solver_max_iters, 1, "solver_max_iters")


@dataclass(frozen=True)
class StageState:
    """One completed substage of a macro step.

    mu_stage is the converged stage matrix, mu_half the half point it
    produces under the configured update; the final stage's mu_half is
    the macro-step result.  residual is the stage-equation defect of
    mu_stage, bounded by solver_tol * (1 + ||entering half point||_F).
    """

    mu_half: np.ndarray
    mu_stage: np.ndarray
    iters: int
    residual: float


# Stages that plain Picard settles within this many sweeps never reach
# the mixing code, so they keep exactly the arithmetic of the plain
# iteration; only slowly contracting stages pay for the mixing.
_PLAIN_SWEEPS = 6
# Number of past residual differences in each Anderson least-squares fit.
_MIXING_DEPTH = 8
# The mixer fits on every _FIT_PERIOD-th call after the first and takes
# the plain update G(x) in between (periodic Pulay mixing).
_FIT_PERIOD = 2
# A real stage of size n <= _CHORD_MAX_N takes chord steps when its last
# two plain sweeps left a share in (low^2, high^2] of the residual before
# them, _CHORD_GATE = (low, high): contracting, but too slowly to finish
# plain.  Two sweeps, because plain sweeps may oscillate, one cutting the
# residual well and the next hardly at all.  Each chord step must cut the
# residual at least _CHORD_CUT-fold (see `_fixed_point`).
# Above n = 8 the n^2 x n^2 inverse costs Toda midpoint more than its
# chord steps save (README's table).
_CHORD_MAX_N = 8
_CHORD_GATE = (0.1, 0.9)
_CHORD_CUT = 4.0
# The dtypes a stage steps in; `_widened` widens any other input.
_STAGE_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


class _AndersonMixer:
    """Periodic type-II Anderson mixing for a fixed-point iteration x <- G(x).

    Walker & Ni, "Anderson acceleration for fixed-point iterations",
    SIAM J. Numer. Anal. 49 (2011); fitting on every k-th iterate only
    is periodic Pulay mixing (Banerjee, Suryanarayana & Pask,
    Chem. Phys. Lett. 647, 2016).  Call c (from 0) writes the flattened
    residual f = G(x) - x and G(x) into row c % (_MIXING_DEPTH + 1) of
    two rings.  When c is a positive multiple of _FIT_PERIOD it returns
    sum_j alpha_j G(x_j) over the stored rows, with alpha = y / sum(y)
    for (F F^dagger) y = 1: the alpha of least ||sum_j alpha_j f_j||_2
    with sum_j alpha_j = 1.  That is the difference-form fit over the
    last _MIXING_DEPTH residual differences, whatever the rows' order.
    Every other call returns the plain update G(x), and so does a fit
    whose solve raises LinAlgError or whose sum(y) is zero or not
    finite; the caller's stopping test alone decides convergence.
    """

    def __init__(self):
        self._calls = 0

    def __call__(self, x, gx):
        g, c = gx.ravel(), self._calls
        if not c:
            self._f = np.empty((_MIXING_DEPTH + 1, g.size), np.result_type(g, x))
            self._gx = np.empty_like(self._f)
        self._calls += 1
        row = c % (_MIXING_DEPTH + 1)
        np.subtract(g, x.ravel(), out=self._f[row])
        self._gx[row] = g
        if not c or c % _FIT_PERIOD:
            return gx
        rows = self._f[: c + 1]
        try:
            y = np.linalg.solve(rows.conj().dot(rows.T), np.ones(len(rows)))
        except np.linalg.LinAlgError:
            return gx
        total = y.sum()
        if not (total and math.isfinite(abs(total))):
            return gx
        return (y / total).dot(self._gx[: c + 1]).reshape(gx.shape)


def _fixed_point(sweep, x0, scale, max_iters, linearize=None):
    """The one sweep loop of every implicit solve, seeded at x0.

    sweep(x) -> (result, G(x), residual) evaluates B once at the
    iterate x and returns what the caller keeps on convergence, the
    fixed-point map's value G(x) and the residual of x as a float.  The
    loop stops at the first sweep whose residual is within scale and
    returns (result, iters, residual).  iters counts sweeps, so an
    already converged seed reports 1.  Raises NonConvergenceError on a
    non-finite residual outside the chord phase or after max_iters
    sweeps.  The first _PLAIN_SWEEPS sweeps take the plain update
    x <- G(x).

    Chord phase: if linearize is given and the last two plain sweeps
    left a share of the residual in (low^2, high^2], _CHORD_GATE being
    (low, high), that is, if the geometric mean of their contraction
    ratios lies in _CHORD_GATE, linearize(result) returns J^-1, the
    inverse of the Jacobian of x - G(x) at that sweep's iterate (or
    None), and every further sweep steps x <- x - J^-1 vec(x - G(x)),
    vec being row-major.  A chord step stands while it cuts the residual
    at least _CHORD_CUT-fold; the first that does not (a non-finite
    residual included) is undone, and the loop mixes on from the iterate
    before it.

    Mixing: otherwise every sweep after the plain ones feeds its x and
    G(x) to the rings of an _AndersonMixer, which fits on every
    _FIT_PERIOD-th call after the first only.  So a stage that takes no
    chord step and settles within _PLAIN_SWEEPS + _FIT_PERIOD sweeps
    runs exactly the plain iteration.
    """
    x = x0
    previous = residual = np.inf
    mix = jinv = None
    low, high = _CHORD_GATE
    # Divergence is detected and raised below; silence the transient
    # overflow warnings it produces on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            before, previous = previous, residual
            result, gx, residual = sweep(x)
            if residual <= scale:
                return result, k + 1, residual
            if jinv is not None and not residual * _CHORD_CUT <= previous:
                jinv, (x, gx) = None, kept
            elif not math.isfinite(residual):
                raise NonConvergenceError(k + 1, residual)
            if k + 1 == _PLAIN_SWEEPS and linearize is not None and low * low * before < residual <= high * high * before:
                jinv = linearize(result)
            if jinv is not None:
                kept = x, gx
                x = x - jinv.dot((x - gx).ravel()).reshape(x.shape)
            elif k + 1 < _PLAIN_SWEEPS:
                x = gx
            else:
                if mix is None:
                    mix = _AndersonMixer()
                x = mix(x, gx)
    raise NonConvergenceError(max_iters, residual)


# The last chord stage's (owner, function, n) and its (units, images); see `_unit_images`.
_UNIT_SLOT = (None, None, 0), None


def _unit_images(b_map, n):
    """The read-only n x n unit matrices E_k, row-major in k, and their images [B(E_k)].

    B is a pure function, so the images are a constant of the map.  One
    slot keeps the last build, matched by identity on the map's owner
    (a bound method's instance, else the map), function (the method's,
    else the map) and n: any B is served, a swapped B builds anew, only
    the last map is kept alive, and maps used in turn rebuild at each
    switch.  A B that raises stores nothing.
    """
    global _UNIT_SLOT
    owner = fn = b_map
    if isinstance(b_map, types.MethodType):
        owner, fn = b_map.__self__, b_map.__func__
    (last_owner, last_fn, last_n), images = _UNIT_SLOT
    if last_owner is owner and last_fn is fn and last_n == n:
        return images
    units = np.eye(n * n).reshape(n * n, n, n)
    bk = np.array([b_map(e) for e in units])
    units.flags.writeable = bk.flags.writeable = False
    _UNIT_SLOT = (owner, fn, n), (units, bk)
    return units, bk


def _stage_sweep(mu_prev, a, b_map):
    """The Picard sweep of a stage: mu -> ((mu, B(mu), defect), mu - defect, ||defect||_F).

    The defect (I - a B) mu (I + a B) - mu_prev has two arithmetics, one
    for a real stage and one for a complex stage.  A real stage takes
    three products, mu - a (B mu - mu B) - a^2 (B mu) B - mu_prev, the
    bits the golden CSV pins.  A complex stage takes two, t + t (a B) - mu_prev
    with t = mu - (a B) mu.  The converged sweep's defect is the d of the
    solve-free unitary update (`quadlie.cayley_conjugate`); each sweep
    works out of place, so no later sweep writes into it.  Neither
    arithmetic assumes a structure of mu or B.
    """
    complex_stage = mu_prev.dtype.kind == "c"

    # ndarray.dot reaches the same BLAS gemm as @ (the same bits) at about half
    # its dispatch cost on small matrices; it is no batched matmul, so stacks keep @.
    def sweep(mu):
        b = b_map(mu)
        if complex_stage:
            ab = a * b
            t = mu - ab.dot(mu)
            defect = t + t.dot(ab) - mu_prev
        else:
            bmu = b.dot(mu)
            defect = mu - a * (bmu - mu.dot(b)) - (a * a) * bmu.dot(b) - mu_prev
        return (mu, b, defect), mu - defect, _frobenius(defect)

    return sweep


def _widened(mu):
    """mu in the dtype a stage steps in, np.result_type(mu, float64).

    That must be float64 or complex128: a narrower or integer state is
    widened (a copy), a float64 or complex128 one comes back as it is, and
    a dtype that widens to neither (longdouble, clongdouble, object)
    raises ValueError naming it.
    """
    if mu.dtype in _STAGE_DTYPES:
        return mu
    wide = np.result_type(mu, np.float64)
    if wide not in _STAGE_DTYPES:
        raise ValueError(f"a {mu.dtype} state widens to neither float64 nor complex128, the dtypes a stage steps in")
    return mu.astype(wide)


def _reduced_stage(mu_prev, a, b_map, cfg: StepperConfig):
    """Solve mu = mu_prev + a [B(mu), mu] + a^2 B(mu) mu B(mu) from mu_prev.

    Returns ((mu, B(mu), defect), iters, residual), the residual being
    ||defect||_F for the stage-equation defect (I - a B) mu (I + a B) - mu_prev
    of mu, within cfg.solver_tol * (1 + ||mu_prev||_F).  Each sweep's
    update is the Picard step mu - defect.

    A stage steps in float64 or complex128 whatever the width of its
    input: mu_prev is widened once, here (`_widened`), before any solve.
    Whether mu_prev is real or complex then picks the defect's
    arithmetic (`_stage_sweep`): three products for a real stage, whose
    bits the golden CSV pins, and two for a complex one.  Nothing is
    projected onto an algebra, so a B or a state that leaves it shows as
    drift.

    A real stage of size n <= _CHORD_MAX_N also gives `_fixed_point`
    the linearization for its chord phase: at the gating sweep's iterate
    mu, the inverse of the defect's Jacobian J.  J's column k is the
    row-major vec of the defect's derivative along the unit matrix E_k,

        lo E_k hi + a (lo mu B(E_k) - B(E_k) mu hi),

    with lo = I - a B(mu) and hi = I + a B(mu), over all n^2 of them.
    It is exact for a linear B, as every builtin B is; for any other B
    the chord steps soon stop paying and the stage mixes.  B(mu) is the
    sweep's, and the chord phase relies on B being a pure function of
    its argument: the images B(E_k) of the last map and size are kept
    (`_unit_images`), so J costs one n^2 x n^2 inverse per stage; a
    singular J gives None, and the stage mixes.
    """
    mu_prev = _widened(mu_prev)
    sweep = _stage_sweep(mu_prev, a, b_map)

    def linearize(result):
        mu, b, _ = result
        n = len(mu)
        lo, hi = _half_factors((2.0 * a) * b)
        units, bk = _unit_images(b_map, n)
        # Row k is vec of the defect's derivative at mu along E_k, J's column k.
        rows = lo @ units @ hi + a * (lo.dot(mu) @ bk - bk @ mu.dot(hi))
        try:
            return np.linalg.inv(rows.reshape(n * n, n * n).T)
        except np.linalg.LinAlgError:
            return None

    scale = cfg.solver_tol * (1.0 + _frobenius(mu_prev))
    small = mu_prev.dtype.kind != "c" and len(mu_prev) <= _CHORD_MAX_N
    return _fixed_point(sweep, mu_prev, scale, cfg.solver_max_iters, linearize if small else None)


def solve_stage(mu_prev, h_i: float, system, cfg: StepperConfig) -> StageState:
    """Solve one implicit substage of size h_i from the half point mu_prev.

    Returns the converged stage matrix together with the next half
    point under cfg.update_form; raises NonConvergenceError when
    cfg.solver_max_iters sweeps do not reach tolerance.  The conjugation
    update gets the converged stage matrix mu_c and its defect d, which a
    unitary context reads to update without a solve where the gates pass.
    """
    sign = _VARIANT_SIGNS[cfg.variant]
    (mu_c, b, d), iters, residual = _reduced_stage(mu_prev, sign * h_i / 2.0, system.B, cfg)
    xi = (sign * h_i) * b
    if cfg.update_form == "conjugation":
        # Resolved by name at each call: the benchmark's tracer swaps this name.
        unitary = getattr(getattr(system, "context", None), "unitary", False)
        mu_half = cayley_conjugate(xi, mu_prev, unitary=unitary, stage=(mu_c, d))
    else:
        mu_half = dcay_inv(-xi, mu_c)
    return StageState(mu_half=mu_half, mu_stage=mu_c, iters=iters, residual=residual)


def _chain(substage, x, cfg: StepperConfig, h: float):
    """The substage chain of one macro step of size h.

    Runs x, stage = substage(x, h * b_i) over cfg.tableau.b, h a finite,
    nonzero real, and returns (x, [stage, ...]).  A failing substage's
    NonConvergenceError or LinAlgError leaves through `_located` with
    stage=i set in place.
    """
    h = _real(h, "step size", "finite and nonzero")
    stages = []
    for i, w in enumerate(cfg.tableau.b):
        try:
            x, st = substage(x, h * w)
        except (NonConvergenceError, np.linalg.LinAlgError) as exc:
            raise _located(exc, stage=i)
        stages.append(st)
    return x, stages


def isospectral_sdirk_step(mu_n, system, cfg: StepperConfig, h: float):
    """One macro step of size h; returns (mu_next, stage states in order)."""

    def substage(mu, h_i):
        # solve_stage is looked up at call time, so a name swapped on
        # this module (as the benchmark's tracer does) takes effect.
        st = solve_stage(mu, h_i, system, cfg)
        return st.mu_half, st

    return _chain(substage, mu_n, cfg, h)


def _drive(step, mu0, n_steps: int):
    """The macro-step loop: yields (n, mu_n, stages_n) for n = 0..n_steps.

    step(mu) -> (mu_next, stages) advances one macro step; the initial
    entry carries an empty stage list.  A non-convergent stage or a
    LinAlgError aborts the run through `_located`, which sets the
    failing step's index in place, here and nowhere else.
    """
    n_steps = _count(n_steps, 1, "n_steps")
    mu = mu0
    yield 0, mu, []
    for n in range(n_steps):
        try:
            mu, stages = step(mu)
        except (NonConvergenceError, np.linalg.LinAlgError) as exc:
            raise _located(exc, step=n)
        yield n + 1, mu, stages


def run_trajectory(mu0, system, cfg: StepperConfig, h: float, n_steps: int):
    """Integrate n_steps macro steps; returns [(mu_n, stages_n)] for n = 0..n_steps.

    The initial entry carries an empty stage list.  Aborts on the
    first non-convergent stage with the step index attached.
    """
    steps = _drive(lambda mu: isospectral_sdirk_step(mu, system, cfg, h), mu0, n_steps)
    return [(mu, stages) for _, mu, stages in steps]


# --- cotangent-bundle form ------------------------------------------------


@dataclass(frozen=True)
class CotangentState:
    """Group/momentum pair (g, p); the reduced state is g^dagger p."""

    g: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class CotangentStage:
    """Converged cotangent substage; the substage returns the updated half points."""

    g_stage: np.ndarray
    p_stage: np.ndarray
    mu_stage: np.ndarray
    iters: int
    residual: float


def cotangent_lift(mu0) -> CotangentState:
    """Lift a reduced state to the bundle: g = I, p = mu0 in the dtype a stage steps in (`_widened`)."""
    mu0 = _widened(mu0)
    return CotangentState(np.eye(len(mu0), dtype=mu0.dtype), mu0)


def momentum_map(state: CotangentState):
    return state.g.conj().T.dot(state.p)


def cotangent_sdirk_step(state: CotangentState, system, cfg: StepperConfig, h: float):
    """One macro step of size h of the unreduced scheme; returns (state, stage list).

    Each substage solves the increment equations

        k_g = (g + (h_i/2) k_g) B(mu_c)^dagger
        k_p = -(p + (h_i/2) k_p) B(mu_c)
        mu_c = (g + (h_i/2) k_g)^dagger (p + (h_i/2) k_p)

    in the same sweep loop and substage chain as the reduced stepper:
    the iterate is the stacked pair (k_g, k_p), seeded at zero, its
    update is the right-hand side, and the residual is the larger of
    the two blocks' change, within
    cfg.solver_tol * (1 + ||g||_F + ||p||_F).  g and p step in the
    dtype a stage steps in (`_widened`), lifted or not.  The half points
    then advance by h_i k.  The converged stage pair is exactly the mean
    of the adjacent half points, and reducing the result through the
    momentum map reproduces the reduced stepper.  Only the left
    variant has this trivialization; cfg.variant must be "left".
    """
    if cfg.variant != "left":
        raise ValueError("cotangent stepping is implemented for the left variant only")

    def substage(st, h_i):
        g, p = _widened(st.g), _widened(st.p)
        half = h_i / 2.0

        def sweep(k):
            g_mid = g + half * k[0]
            p_mid = p + half * k[1]
            b = system.B(g_mid.conj().T.dot(p_mid))
            k_new = np.stack((g_mid.dot(b.conj().T), -p_mid.dot(b)))
            residual = max(_frobenius(k_new[0] - k[0]), _frobenius(k_new[1] - k[1]))
            return k_new, k_new, residual

        k0 = np.zeros((2,) + g.shape, dtype=np.result_type(g, p))
        scale = cfg.solver_tol * (1.0 + _frobenius(g) + _frobenius(p))
        (k_g, k_p), iters, residual = _fixed_point(sweep, k0, scale, cfg.solver_max_iters)
        g_mid = g + half * k_g
        p_mid = p + half * k_p
        stage = CotangentStage(
            g_stage=g_mid,
            p_stage=p_mid,
            mu_stage=g_mid.conj().T.dot(p_mid),
            iters=iters,
            residual=residual,
        )
        return CotangentState(g + h_i * k_g, p + h_i * k_p), stage

    return _chain(substage, state, cfg, h)


# --- baselines ------------------------------------------------------------


def gawlik_step(mu_tilde, h: float, system, cfg: StepperConfig = StepperConfig()):
    """Cayley implicit half-step update; returns (mu_next, [StageState]).

    Solves dcay_inv(h B(m+), m+) = dcay_inv(-h B(m), m) for the next
    half point m+.  The right side is explicit; the left side is the
    stage fixed point at full h, whose solution is both the single
    stage's matrix and its half point.  Symplectic but not isospectral:
    the update is not a similarity transform, so eigenvalues drift.  h
    must be a finite, nonzero real.
    """
    h = _real(h, "step size", "finite and nonzero")
    # A step too large overflows the explicit side or the tolerance scale;
    # _fixed_point raises on the non-finite residual, so silence the warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = dcay_inv(-h * system.B(mu_tilde), mu_tilde)
        (mu, *_), iters, residual = _reduced_stage(rhs, h / 2.0, system.B, cfg)
    return mu, [StageState(mu_half=mu, mu_stage=mu, iters=iters, residual=residual)]


def classical_rk4_step(mu, h: float, system):
    """Explicit RK4 on mu_dot = [B(mu), mu], ignoring all structure; h must be a finite, nonzero real."""
    h = _real(h, "step size", "finite and nonzero")

    def f(x):
        return commutator(system.B(x), x)

    k1 = f(mu)
    k2 = f(mu + (h / 2.0) * k1)
    k3 = f(mu + (h / 2.0) * k2)
    k4 = f(mu + h * k3)
    return mu + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
