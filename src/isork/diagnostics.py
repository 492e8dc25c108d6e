"""Conservation metrics, trajectory recording, and CSV output.

A trajectory is summarized per step by the drift quantities that the
steppers are supposed to control: energy relative to the initial
state, the max-abs change of the canonically ordered spectrum, the
trace Casimirs, the structural membership residual, and the total
fixed-point work.  Spectra are paired across time by canonical
sorting against the stored initial spectrum, not by continuous
tracking: the integrators conserve spectra, so the sorted order is
stable, and the clustered tie-handling in `spectrum` keeps conjugate
pairs from swapping under roundoff.

Recorded runs and convergence sweeps hand a step callable (the
isospectral stepper or either baseline) to the integrator's single
macro-step loop, which attaches step indices to solver failures.  They
pass the macro step h through; cfg.tableau alone sets the substeps.

CSV output uses shortest round-trip float formatting so files are
byte-deterministic for a given (seed, config) and parse back
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import (
    NonConvergenceError,
    StepperConfig,
    _drive,
    classical_rk4_step,
    gawlik_step,
    isospectral_sdirk_step,
)
from .quadlie import spectrum

__all__ = [
    "TrajectoryRecord",
    "ConvergenceReport",
    "Recorder",
    "run_recorded",
    "convergence_study",
    "write_csv",
    "read_csv",
]

_METHODS = ("isospectral", "gawlik", "rk4")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Drift metrics for one trajectory point.

    energy_drift is signed, H(mu_n) - H(mu_0).  spectral_drift is the
    max-abs difference of canonically sorted spectra; NaN flags an
    eigensolver failure at this point.  solver_iters_total sums the
    fixed-point sweeps over the step's stages (0 for the initial point
    and for explicit steppers).
    """

    step: int
    t: float
    energy: float
    energy_drift: float
    spectral_drift: float
    casimir_values: tuple[float, ...]
    solver_iters_total: int
    membership_residual: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence sweep: final-state errors against a fine-step reference."""

    h_values: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_slope: float


class Recorder:
    """Caches the initial spectrum and energy of a trajectory being recorded."""

    def __init__(self, system, mu0):
        self.system = system
        self.mu0 = mu0
        self.energy0 = float(system.hamiltonian(mu0))
        self.spectrum0 = spectrum(mu0)

    def record(self, mu_n, stage_stats, step: int = 0, h: float = 0.0) -> TrajectoryRecord:
        system = self.system
        energy = float(system.hamiltonian(mu_n))
        try:
            drift = float(np.max(np.abs(spectrum(mu_n) - self.spectrum0)))
        except np.linalg.LinAlgError:
            drift = float("nan")
        return TrajectoryRecord(
            step=step,
            t=step * h,
            energy=energy,
            energy_drift=energy - self.energy0,
            spectral_drift=drift,
            casimir_values=tuple(float(c) for c in system.casimirs(mu_n)),
            solver_iters_total=sum(s.iters for s in stage_stats),
            membership_residual=float(system.state_residual(mu_n)),
        )


def run_recorded(
    system,
    mu0,
    cfg: StepperConfig,
    h: float,
    n_steps: int,
    method: str = "isospectral",
    record_every: int = 1,
) -> list[TrajectoryRecord]:
    """Integrate and record without retaining the trajectory itself.

    method selects the production stepper or one of the baselines
    ("gawlik", "rk4"); the baselines ignore cfg.tableau and advance
    with the bare step h.  Records the initial point, every
    record_every-th step, and always the final step.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    # The steppers are looked up at call time, so a name swapped on this
    # module (as the benchmark's tracer does) takes effect.
    if method == "isospectral":
        step = lambda mu: isospectral_sdirk_step(mu, system, cfg, h)
    elif method == "gawlik":
        step = lambda mu: gawlik_step(mu, h, system, cfg)
    else:
        step = lambda mu: (classical_rk4_step(mu, h, system), [])
    rec = Recorder(system, mu0)
    return [
        rec.record(mu, stages, step=n, h=h)
        for n, mu, stages in _drive(step, mu0, n_steps)
        if n % record_every == 0 or n == n_steps
    ]


def _final_state(mu0, system, cfg: StepperConfig, h: float, t_final: float):
    step = lambda mu: isospectral_sdirk_step(mu, system, cfg, h)
    for _, mu_n, _ in _drive(step, mu0, _step_count(t_final, h)):
        pass
    return mu_n


def _step_count(t_final: float, h: float) -> int:
    steps = t_final / h
    if not math.isfinite(steps):
        raise ValueError(f"step size h = {h} is too small: t_final / h = {steps} is not finite")
    n = round(steps)
    if n < 1 or abs(n * h - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final = {t_final} is not an integer multiple of h = {h}")
    return n


def convergence_study(
    system,
    h_list,
    t_final: float,
    reference_h: float | None = None,
    mu0=None,
    cfg: StepperConfig = StepperConfig(),
    seed: int = 0,
) -> ConvergenceReport:
    """Self-convergence sweep of the isospectral stepper under cfg.tableau.

    Integrates to t_final at each step size (sorted descending,
    duplicates kept) and at reference_h (default min(h_list)/8, and
    never allowed coarser than that), then reports final-state
    Frobenius errors against the reference and the least-squares slope
    of log error vs log h.  t_final, the step sizes and reference_h
    must be positive and finite, and every step size must divide t_final.

    A non-convergent sweep member aborts the study; the raised error
    carries the report of the completed members in its `partial`
    attribute (slope NaN when fewer than two points finished).
    """
    h_values = sorted((float(h) for h in h_list), reverse=True)
    if len(h_values) < 2:
        raise ValueError("need at least two step sizes to fit a slope")
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if not all(0 < h < math.inf for h in h_values):
        raise ValueError(f"h_list step sizes must be positive and finite, got {list(h_list)}")
    h_min = h_values[-1]
    if reference_h is None:
        reference_h = h_min / 8.0
    elif not 0 < reference_h <= h_min / 8.0 * (1.0 + 1e-12):
        raise ValueError(
            f"reference_h must be positive and at most min(h_list)/8 = {h_min / 8.0}, got {reference_h}"
        )
    if mu0 is None:
        mu0 = system.initial_state(seed)

    def partial_report(errors):
        slope = _fit_slope(h_values[: len(errors)], errors) if len(errors) >= 2 else float("nan")
        return ConvergenceReport(tuple(h_values[: len(errors)]), tuple(errors), slope)

    errors = []
    try:
        mu_ref = _final_state(mu0, system, cfg, reference_h, t_final)
        for h in h_values:
            errors.append(float(np.linalg.norm(_final_state(mu0, system, cfg, h, t_final) - mu_ref)))
    except NonConvergenceError as exc:
        exc.partial = partial_report(errors)
        raise
    return ConvergenceReport(tuple(h_values), tuple(errors), _fit_slope(h_values, errors))


def _fit_slope(h_values, errors) -> float:
    return float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])


def write_csv(records, path) -> None:
    """Write records to path; see module docstring for determinism notes.

    Columns: step, t, energy, energy_drift, spectral_drift,
    casimir_2..casimir_K (labels follow the consecutive Casimir orders
    starting at 2 that every builtin system reports), solver_iters,
    membership_residual.  An empty record list produces a header with
    no casimir columns.
    """
    records = list(records)
    n_cas = len(records[0].casimir_values) if records else 0
    header = ["step", "t", "energy", "energy_drift", "spectral_drift"]
    header += [f"casimir_{k}" for k in range(2, 2 + n_cas)]
    header += ["solver_iters", "membership_residual"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in records:
            if len(r.casimir_values) != n_cas:
                raise ValueError("records disagree on the number of casimir values")
            row = [str(r.step), repr(r.t), repr(r.energy), repr(r.energy_drift), repr(r.spectral_drift)]
            row += [repr(c) for c in r.casimir_values]
            row += [str(r.solver_iters_total), repr(r.membership_residual)]
            fh.write(",".join(row) + "\n")


def read_csv(path) -> list[TrajectoryRecord]:
    """Parse a write_csv file back; inverse of write_csv at full precision."""
    with open(path, newline="") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    n_cas = sum(1 for name in header if name.startswith("casimir_"))
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        out.append(
            TrajectoryRecord(
                step=int(parts[0]),
                t=float(parts[1]),
                energy=float(parts[2]),
                energy_drift=float(parts[3]),
                spectral_drift=float(parts[4]),
                casimir_values=tuple(float(x) for x in parts[5 : 5 + n_cas]),
                solver_iters_total=int(parts[5 + n_cas]),
                membership_residual=float(parts[6 + n_cas]),
            )
        )
    return out
