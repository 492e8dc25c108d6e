"""Output checks applied to every benchmark trajectory.

Bounds are the acceptance criteria's: spectral drift below 1e-11
(criterion 1), quadratic Casimir drift below 1e-11 absolute on the
rigid body and 1e-10 relative on Zeitlin (criterion 3), and a
membership residual below 1e-11.  Every comparison is written as
`not value < bound`, and finiteness is tested field by field, so a NaN
fails the check instead of being skipped the way `max()` skips it.
"""

from __future__ import annotations

import math

SPECTRAL_BOUND = 1e-11
MEMBERSHIP_BOUND = 1e-11


def expected_steps(steps: int, record_every: int) -> list[int]:
    """Step indices `run_recorded` records: 0, every record_every-th, and the last."""
    return [n for n in range(steps + 1) if n % record_every == 0 or n == steps]


def check_records(records, steps: int, record_every: int, casimir_bound) -> list[str]:
    """Problems found in one trajectory's records; an empty list means it passed.

    casimir_bound is None or (kind, bound) with kind "abs" or "rel",
    applied to the first (quadratic) Casimir against its initial value.
    """
    got = [r.step for r in records]
    if got != expected_steps(steps, record_every):
        return [f"recorded steps {got[:3]}...{got[-3:]} do not match steps={steps} record_every={record_every}"]
    problems = []
    c0 = records[0].casimir_values[0]
    for r in records:
        values = {
            "t": r.t,
            "energy": r.energy,
            "energy_drift": r.energy_drift,
            "spectral_drift": r.spectral_drift,
            "membership_residual": r.membership_residual,
            "solver_iters": r.solver_iters_total,
        }
        values.update({f"casimir_{k}": c for k, c in enumerate(r.casimir_values, start=2)})
        bad = [name for name, v in values.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"step {r.step}: non-finite {', '.join(bad)}")
            continue
        if not r.spectral_drift < SPECTRAL_BOUND:
            problems.append(f"step {r.step}: spectral drift {r.spectral_drift:.3e} >= {SPECTRAL_BOUND:.0e}")
        if not r.membership_residual < MEMBERSHIP_BOUND:
            problems.append(f"step {r.step}: membership residual {r.membership_residual:.3e} >= {MEMBERSHIP_BOUND:.0e}")
        if casimir_bound is not None:
            kind, bound = casimir_bound
            drift = abs(r.casimir_values[0] - c0)
            if kind == "rel":
                drift /= abs(c0)
            if not drift < bound:
                problems.append(f"step {r.step}: {kind} casimir_2 drift {drift:.3e} >= {bound:.0e}")
    return problems
