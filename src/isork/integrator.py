"""Isospectral SDIRK steppers and reference integrators.

One macro step of size h chains the tableau's implicit midpoint
substeps h_i = h * b_i over the staggered grid of half points
mu_{r_0} = mu_n, ..., mu_{r_s} = mu_{n+1}, with r_i = b_1 + ... + b_i,
and stage points at the fractions c_i = r_{i-1} + b_i / 2.  For
substep size h_i the stage matrix mu_c solves

    (I - (h_i/2) B(mu_c)) mu_c (I + (h_i/2) B(mu_c)) = mu_prev

by fixed-point iteration, and the next half point is either

    dcay form:     (I + (h_i/2) B(mu_c)) mu_c (I - (h_i/2) B(mu_c))
    conjugation:   cay(h_i B(mu_c)) mu_prev cay(h_i B(mu_c))^{-1}

The two coincide exactly at the true stage solution; with a finitely
converged stage the conjugation form is still an exact similarity, so
it conserves spectra and trace Casimirs to roundoff regardless of the
solver residual, while the dcay form leaks at the residual level.  The
right-invariant variant swaps the signs of both halves, which is the
same arithmetic as stepping with -h_i.

Every multi-step run, here and in the diagnostics module, goes through
one loop, `_drive`, over a step(mu) -> (mu_next, stages) callable such
as the Cayley half-step baseline; only it attaches step indices.

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
from dataclasses import dataclass, field

import numpy as np

from .quadlie import cayley_conjugate, commutator, dcay_inv
from .tableau import BUILTIN_TABLEAUS, SdirkTableau

__all__ = [
    "StepperConfig",
    "StageState",
    "CotangentState",
    "CotangentStage",
    "NonConvergenceError",
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


class NonConvergenceError(RuntimeError):
    """Fixed-point stage solve failed to reach tolerance.

    Signals a step size too large for contraction; halving it restores
    convergence.  Callers abort the run rather than continue from an
    unconverged stage.
    """

    def __init__(self, iters: int, residual: float, step: int | None = None, stage: int | None = None):
        self.iters = iters
        self.residual = residual
        self.step = step
        self.stage = stage
        where = ""
        if step is not None:
            where += f" at step {step}"
        if stage is not None:
            where += f" stage {stage}"
        super().__init__(
            f"stage solve did not converge{where}: residual {residual:.3e} after {iters} iterations"
        )


@dataclass(frozen=True)
class StepperConfig:
    """Solver and update-form choices for the isospectral steppers."""

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
        if not 0 < self.solver_tol < math.inf:
            raise ValueError(f"solver_tol must be positive and finite, got {self.solver_tol}")
        if self.solver_max_iters < 1:
            raise ValueError(f"solver_max_iters must be at least 1, got {self.solver_max_iters}")


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


def _fixed_point(mu_prev, a, b_map, tol, max_iters):
    """Iterate mu <- mu_prev + a [B(mu), mu] + a^2 B(mu) mu B(mu).

    Seeded at mu_prev; the residual tested each sweep is the stage
    equation defect of the current iterate, so the returned matrix
    satisfies ||(I - a B) mu (I + a B) - mu_prev||_F within
    tol * (1 + ||mu_prev||_F).  B is re-evaluated every sweep (it may
    be nonlinear); iters counts residual evaluations, so an already
    converged seed (B = 0 or a = 0) reports 1.
    """
    mu = mu_prev
    scale = tol * (1.0 + float(np.linalg.norm(mu_prev)))
    residual = np.inf
    # Divergence is detected and raised below; silence the transient
    # overflow warnings it produces on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            b = b_map(mu)
            bmu = b @ mu
            defect = mu - a * (bmu - mu @ b) - (a * a) * (bmu @ b) - mu_prev
            residual = float(np.linalg.norm(defect))
            if residual <= scale:
                return mu, k + 1, residual
            if not np.isfinite(residual):
                raise NonConvergenceError(k + 1, residual)
            mu = mu - defect
    raise NonConvergenceError(max_iters, residual)


def solve_stage(mu_prev, h_i: float, system, cfg: StepperConfig) -> StageState:
    """Solve one implicit substage of size h_i from the half point mu_prev.

    Returns the converged stage matrix together with the next half
    point under cfg.update_form; raises NonConvergenceError when
    cfg.solver_max_iters sweeps do not reach tolerance.
    """
    sign = _VARIANT_SIGNS[cfg.variant]
    a = sign * h_i / 2.0
    mu_c, iters, residual = _fixed_point(mu_prev, a, system.B, cfg.solver_tol, cfg.solver_max_iters)
    xi = (sign * h_i) * system.B(mu_c)
    if cfg.update_form == "conjugation":
        mu_half = cayley_conjugate(xi, mu_prev)
    else:
        mu_half = dcay_inv(-xi, mu_c)
    return StageState(mu_half=mu_half, mu_stage=mu_c, iters=iters, residual=residual)


def _substeps(cfg: StepperConfig, h: float) -> list[float]:
    """Substep sizes h * b_i of one macro step under cfg.tableau."""
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    return [h * w for w in cfg.tableau.b]


def isospectral_sdirk_step(mu_n, system, cfg: StepperConfig, h: float):
    """One macro step of size h; returns (mu_next, stage states in order)."""
    mu = mu_n
    stages = []
    for i, h_i in enumerate(_substeps(cfg, h)):
        try:
            st = solve_stage(mu, h_i, system, cfg)
        except NonConvergenceError as exc:
            raise NonConvergenceError(exc.iters, exc.residual, stage=i) from None
        mu = st.mu_half
        stages.append(st)
    return mu, stages


def _drive(step, mu0, n_steps: int):
    """The macro-step loop: yields (n, mu_n, stages_n) for n = 0..n_steps.

    step(mu) -> (mu_next, stages) advances one macro step; the initial
    entry carries an empty stage list.  A non-convergent stage aborts
    the run with the index of the failing step attached, here and
    nowhere else.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    mu = mu0
    yield 0, mu, []
    for n in range(n_steps):
        try:
            mu, stages = step(mu)
        except NonConvergenceError as exc:
            raise NonConvergenceError(exc.iters, exc.residual, step=n, stage=exc.stage) from None
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
    """Converged cotangent substage with the updated half points."""

    g_stage: np.ndarray
    p_stage: np.ndarray
    mu_stage: np.ndarray
    g_half: np.ndarray
    p_half: np.ndarray
    iters: int
    residual: float


def cotangent_lift(mu0) -> CotangentState:
    """Lift a reduced state to the bundle: g = I, p = mu0."""
    n = mu0.shape[0]
    return CotangentState(np.eye(n, dtype=np.result_type(mu0.dtype, np.float64)), mu0)


def momentum_map(state: CotangentState):
    return state.g.conj().T @ state.p


def cotangent_sdirk_step(state: CotangentState, system, cfg: StepperConfig, h: float):
    """One macro step of size h of the unreduced scheme; returns (state, stage list).

    Each substage solves the increment equations

        k_g = (g + (h_i/2) k_g) B(mu_c)^dagger
        k_p = -(p + (h_i/2) k_p) B(mu_c)
        mu_c = (g + (h_i/2) k_g)^dagger (p + (h_i/2) k_p)

    by fixed-point iteration seeded at zero increments, then advances
    the half points by h_i k.  The converged stage pair is exactly the
    mean of the adjacent half points, and reducing the result through
    the momentum map reproduces the reduced stepper.  Only the left
    variant has this trivialization; cfg.variant must be "left".
    """
    if cfg.variant != "left":
        raise ValueError("cotangent stepping is implemented for the left variant only")
    g, p = state.g, state.p
    stages = []
    for i, h_i in enumerate(_substeps(cfg, h)):
        k_g = np.zeros_like(g)
        k_p = np.zeros_like(p)
        scale = cfg.solver_tol * (1.0 + float(np.linalg.norm(g)) + float(np.linalg.norm(p)))
        half = h_i / 2.0
        residual = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            for sweep in range(cfg.solver_max_iters):
                g_mid = g + half * k_g
                p_mid = p + half * k_p
                mu_c = g_mid.conj().T @ p_mid
                b = system.B(mu_c)
                k_g_new = g_mid @ b.conj().T
                k_p_new = -(p_mid @ b)
                residual = max(
                    float(np.linalg.norm(k_g_new - k_g)),
                    float(np.linalg.norm(k_p_new - k_p)),
                )
                k_g, k_p = k_g_new, k_p_new
                if residual <= scale:
                    break
                if not np.isfinite(residual):
                    raise NonConvergenceError(sweep + 1, residual, stage=i)
            else:
                raise NonConvergenceError(cfg.solver_max_iters, residual, stage=i)
        g_mid = g + half * k_g
        p_mid = p + half * k_p
        g = g + h_i * k_g
        p = p + h_i * k_p
        stages.append(
            CotangentStage(
                g_stage=g_mid,
                p_stage=p_mid,
                mu_stage=g_mid.conj().T @ p_mid,
                g_half=g,
                p_half=p,
                iters=sweep + 1,
                residual=residual,
            )
        )
    return CotangentState(g, p), stages


# --- baselines ------------------------------------------------------------


def gawlik_step(mu_tilde, h: float, system, cfg: StepperConfig | None = None):
    """Cayley implicit half-step update; returns (mu_next, [StageState]).

    Solves dcay_inv(h B(m+), m+) = dcay_inv(-h B(m), m) for the next
    half point m+.  The right side is explicit; the left side is the
    stage fixed point at full h, whose solution is both the single
    stage's matrix and its half point.  Symplectic but not isospectral:
    the update is not a similarity transform, so eigenvalues drift.
    """
    if cfg is None:
        cfg = StepperConfig()
    rhs = dcay_inv(-h * system.B(mu_tilde), mu_tilde)
    mu, iters, residual = _fixed_point(rhs, h / 2.0, system.B, cfg.solver_tol, cfg.solver_max_iters)
    return mu, [StageState(mu_half=mu, mu_stage=mu, iters=iters, residual=residual)]


def classical_rk4_step(mu, h: float, system):
    """Explicit RK4 on mu_dot = [B(mu), mu], ignoring all structure."""

    def f(x):
        return commutator(system.B(x), x)

    k1 = f(mu)
    k2 = f(mu + (h / 2.0) * k1)
    k3 = f(mu + (h / 2.0) * k2)
    k4 = f(mu + h * k3)
    return mu + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
