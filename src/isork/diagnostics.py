"""Conservation metrics, trajectory recording, and CSV output.

A trajectory is summarized per step by the drift quantities that the
steppers are supposed to control: energy relative to the initial
state, the max-abs change of the canonically ordered spectrum, the
trace Casimirs, the structural membership residual, and the total
fixed-point work.  Spectra are paired across time by canonical
sorting against the initial spectrum, not by continuous
tracking: the integrators conserve spectra, so the sorted order is
stable, and the clustered tie-handling in `spectrum` keeps conjugate
pairs from swapping under roundoff.  Recorded states are measured in
blocks of up to 64 states and 2 MiB, one `spectrum` and one system
call per quantity per block; the values are those of one call per state.
Step 0 is measured in the first block, and its row is the reference.

Recorded runs and convergence sweeps hand a step callable (the
isospectral stepper or either baseline) to the integrator's single
macro-step loop, which sets step indices on solver failures.  They
pass the macro step h through; cfg.tableau alone sets the substeps.

A CSV line is a record's `row()`, the one statement of the column
order, as Python scalars in shortest round-trip form (repr), so files
are byte-deterministic for a given (seed, config) and parse back
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
    _located,
    _widened,
    classical_rk4_step,
    gawlik_step,
    isospectral_sdirk_step,
)
from .quadlie import _count, _frobenius, _real, spectrum

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
_RECORD_BLOCK = 64
_RECORD_BYTES = 2 << 20


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

    def row(self) -> tuple:
        """The values in CSV column order, the one place that states it, as Python ints and floats."""
        return (int(self.step), *map(float, (self.t, self.energy, self.energy_drift, self.spectral_drift,
                                             *self.casimir_values)),
                int(self.solver_iters_total), float(self.membership_residual))


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence sweep: final-state errors against a fine-step reference."""

    h_values: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_slope: float


class Recorder:
    """Measures recorded states against the first state it records.

    `record` stacks a block of states once and measures it with one
    call each of `spectrum` and the system's `hamiltonian`, `casimirs`
    and `state_residual`; the first state's row sets `spectrum0` and `energy0`.
    """

    def __init__(self, system):
        self.system = system
        self.spectrum0 = self.energy0 = None

    def record(self, points, h: float = 0.0) -> list[TrajectoryRecord]:
        """One record per (step, mu_n, solver_iters) in the list points, in order."""
        # A block that mixes dtypes (stacking would promote a real state) or
        # fails its eigensolve is redone state by state, so only a failing state reads NaN.
        spectra = None
        if len({p[1].dtype for p in points}) == 1:
            stack = np.stack([p[1] for p in points])
            try:
                spectra = spectrum(stack)
            except np.linalg.LinAlgError:
                spectra = np.full(stack.shape[:-1], math.nan) if len(points) == 1 else None
        if spectra is None:
            return [r for p in points for r in self.record([p], h)]
        system = self.system
        energies, casimirs, residuals = (
            f(stack).tolist() for f in (system.hamiltonian, system.casimirs, system.state_residual)
        )
        if self.spectrum0 is None:
            self.spectrum0, self.energy0 = spectra[0], energies[0]
        drifts = np.max(np.abs(spectra - self.spectrum0), axis=-1).tolist()
        return [
            TrajectoryRecord(step=step, t=step * h, energy=e, energy_drift=e - self.energy0, spectral_drift=d,
                             casimir_values=tuple(c), solver_iters_total=iters, membership_residual=r)
            for (step, _, iters), d, e, c, r in zip(points, drifts, energies, casimirs, residuals)
        ]


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

    method selects the production stepper or one of the baselines ("gawlik",
    "rk4"); the baselines ignore cfg.tableau and advance with the bare step
    h.  n_steps and record_every are integers of at least 1.  mu0 is
    widened to the dtype a stage steps in (float64 or complex128) for every
    method; a wider dtype raises ValueError naming it.  Records the
    initial point, every record_every-th step, and always the final step.
    Recorded states wait with their summed sweep counts, not stage lists, in
    a buffer flushed at 64 states or 2 MiB, whichever comes first (8 at N = 128).
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    _count(record_every, 1, "record_every")
    mu0 = _widened(mu0)
    # The steppers are looked up at call time, so a name swapped on this
    # module (as the benchmark's tracer does) takes effect.
    if method == "isospectral":
        step = lambda mu: isospectral_sdirk_step(mu, system, cfg, h)
    elif method == "gawlik":
        step = lambda mu: gawlik_step(mu, h, system, cfg)
    else:
        step = lambda mu: (classical_rk4_step(mu, h, system), [])
    rec = Recorder(system)
    records, block, nbytes = [], [], 0
    for n, mu, stages in _drive(step, mu0, n_steps):
        if n % record_every == 0 or n == n_steps:
            block.append((n, mu, sum(s.iters for s in stages)))
            nbytes += mu.nbytes
            if len(block) == _RECORD_BLOCK or nbytes >= _RECORD_BYTES or n == n_steps:
                records += rec.record(block, h)
                block, nbytes = [], 0
    return records


def _final_state(mu0, system, cfg: StepperConfig, h: float, n_steps: int):
    step = lambda mu: isospectral_sdirk_step(mu, system, cfg, h)
    for _, mu_n, _ in _drive(step, mu0, n_steps):
        pass
    return mu_n


def _step_count(t_final: float, h: float) -> int:
    steps = t_final / h
    if not math.isfinite(steps):
        raise ValueError(f"step size h = {h} is too small: t_final / h = {steps} is not finite")
    n = round(steps)
    if n < 1 or abs(n * h - t_final) > 1e-9 * abs(t_final):
        raise ValueError(f"t_final = {t_final} is not an integer multiple of h = {h}")
    return n


def _report(h_values, errors) -> ConvergenceReport:
    """The report over the first len(errors) step sizes.

    The slope is fitted only over at least two distinct step sizes whose
    errors are all positive and finite; otherwise it is NaN, with no warning.
    """
    h_values = tuple(h_values[: len(errors)])
    fit = len(set(h_values)) >= 2 and all(0.0 < e < math.inf for e in errors)
    slope = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0]) if fit else math.nan
    return ConvergenceReport(h_values, tuple(errors), slope)


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
    of log error vs log h (NaN below two distinct step sizes, or when an
    error is zero or not finite, as at an equilibrium).  t_final,
    each step size and reference_h must be positive, finite reals (an h_list
    iterator is read once), and every step size must divide t_final; all
    of them are checked, the reference's first, before the first step.

    A sweep member's NonConvergenceError or StageLinAlgError aborts the
    study with the failing step size set in place as its `member`
    ("reference_h = ..." or "h = ..."), carrying the report of the
    completed members in its `partial` attribute (slope NaN when fewer
    than two distinct step sizes finished).
    """
    h_list = list(h_list)
    if len(h_list) < 2:
        raise ValueError("need at least two step sizes to fit a slope")
    t_final = _real(t_final, "t_final", "positive and finite")
    h_values = sorted((_real(h, "h_list step size", "positive and finite") for h in h_list), reverse=True)
    h_min = h_values[-1]
    reference_h = _real(h_min / 8.0 if reference_h is None else reference_h, "reference_h", "positive and finite")
    if not reference_h <= h_min / 8.0 * (1.0 + 1e-12):
        raise ValueError(
            f"reference_h must be positive and at most min(h_list)/8 = {h_min / 8.0}, got {reference_h}"
        )
    if mu0 is None:
        mu0 = system.initial_state(seed)
    n_ref, *counts = (_step_count(t_final, h) for h in (reference_h, *h_values))

    errors = []
    member = f"reference_h = {reference_h!r}"
    try:
        mu_ref = _final_state(mu0, system, cfg, reference_h, n_ref)
        for h, n in zip(h_values, counts):
            member = f"h = {h!r}"
            errors.append(_frobenius(_final_state(mu0, system, cfg, h, n) - mu_ref))
    except (NonConvergenceError, np.linalg.LinAlgError) as exc:
        exc.partial = _report(h_values, errors)
        raise _located(exc, member=member)
    return _report(h_values, errors)


def write_csv(records, path) -> None:
    """Write records to path, one TrajectoryRecord.row() per line in repr form.

    Columns: step, t, energy, energy_drift, spectral_drift, casimir_2..casimir_K
    (labels follow the consecutive Casimir orders starting at 2 that every
    builtin system reports), solver_iters, membership_residual.  An empty
    record list gives a header with no casimir columns; records that disagree
    on the Casimir count raise ValueError before the file is opened.
    """
    records = list(records)
    n_cas = len(records[0].casimir_values) if records else 0
    if any(len(r.casimir_values) != n_cas for r in records):
        raise ValueError("records disagree on the number of casimir values")
    header = ["step", "t", "energy", "energy_drift", "spectral_drift"]
    header += [f"casimir_{k}" for k in range(2, 2 + n_cas)]
    header += ["solver_iters", "membership_residual"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in records:
            fh.write(",".join(map(repr, r.row())) + "\n")


def read_csv(path) -> list[TrajectoryRecord]:
    """Parse a write_csv file back; inverse of write_csv at full precision."""
    with open(path, newline="") as fh:
        rows = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()][1:]
    return [
        TrajectoryRecord(int(step), float(t), float(e), float(de), float(ds), tuple(map(float, cas)),
                         int(iters), float(res))
        for step, t, e, de, ds, *cas, iters, res in rows
    ]
