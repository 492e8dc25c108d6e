"""Outside-in tracing of the library's layers for the traced benchmark run.

Spans are recorded around calls into public library functions, from
outside the library: a delegating proxy system times `B` and the
Recorder's system calls, and the names the library resolves at call
time are swapped for timing wrappers while a trace is active and
restored afterwards.  No library file is changed.  Spans stay in memory
as (name, start, end, parent, trajectory) tuples and are written out
when the run ends.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import numpy as np

import isork.diagnostics
import isork.integrator


class Tracer:
    """Collects nested spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stage_iters: list[int] = []
        self.trajectory: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.trajectory)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path) -> None:
        """Tab-separated spans, one a line; parent is -1 for a root span."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\ttrajectory\n")
            for sid, (name, start, end, parent, traj) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{-1 if parent is None else parent}\t{traj}\n")


class TracedSystem:
    """Delegating proxy whose B and Recorder-facing methods are timed."""

    def __init__(self, system, tracer: Tracer):
        self._system = system
        self.B = tracer.wrap("systems.B", system.B)
        self.hamiltonian = tracer.wrap("diagnostics.record.energy", system.hamiltonian)
        self.casimirs = tracer.wrap("diagnostics.record.casimirs", system.casimirs)
        self.state_residual = tracer.wrap("diagnostics.record.membership", system.state_residual)

    def __getattr__(self, name):
        return getattr(self._system, name)


# (owner, attribute, span name) of every name swapped while tracing.
# Every workload uses the conjugation update, so dcay_inv never runs
# and is not wrapped.
ENTRY_POINTS = (
    (isork.diagnostics, "isospectral_sdirk_step", "integrator.step"),
    (isork.integrator, "solve_stage", "integrator.solve_stage"),
    (isork.integrator, "cayley_conjugate", "quadlie.cayley_conjugate"),
    (isork.diagnostics, "spectrum", "quadlie.spectrum"),
    (isork.diagnostics.Recorder, "record", "diagnostics.record"),
)
PROXIED = ("systems.B", "diagnostics.record.energy", "diagnostics.record.casimirs",
           "diagnostics.record.membership")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Swap the entry points for traced wrappers; always restores them."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in ENTRY_POINTS]
    try:
        for (owner, attr, name), (_, _, fn) in zip(ENTRY_POINTS, saved):
            hook = (lambda st: tracer.stage_iters.append(st.iters)) if attr == "solve_stage" else None
            setattr(owner, attr, tracer.wrap(name, fn, on_result=hook))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def missing_entry_points(tracer: Tracer) -> list[str]:
    """Traced names that never produced a span: a layer that would read zero."""
    seen = {span[0] for span in tracer.spans}
    names = [name for _, _, name in ENTRY_POINTS] + list(PROXIED)
    return [name for name in names if name not in seen]


def span_totals(spans):
    """Per name: (calls, total seconds, self seconds), self time being
    duration minus the time covered by direct child spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for sid, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered[sid]
    return totals


def layer_metrics(tracer: Tracer, trajectories: int, csv_bytes: int, csv_rows: int) -> dict[str, float]:
    """Per-layer figures; calls, seconds, rows and bytes are per trajectory."""
    totals = span_totals(tracer.spans)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_secs(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    run_s = secs("diagnostics.run_recorded")
    stages = calls("integrator.solve_stage")
    steps_us = np.array([(end - start) * 1e6 for name, start, end, _, _ in tracer.spans
                         if name == "integrator.step"])
    per = 1.0 / trajectories
    return {
        "integrator.stages": stages * per,
        "integrator.sweeps_per_stage": sum(tracer.stage_iters) / stages,
        "integrator.sweeps_per_stage_max": max(tracer.stage_iters),
        "integrator.solve_stage_s": secs("integrator.solve_stage") * per,
        "integrator.fixed_point_self_s": self_secs("integrator.solve_stage") * per,
        "integrator.solve_stage_share": secs("integrator.solve_stage") / run_s,
        "integrator.step_us_p50": float(np.percentile(steps_us, 50)),
        "integrator.step_us_p99": float(np.percentile(steps_us, 99)),
        "integrator.step_samples": steps_us.size,
        "systems.B_calls": calls("systems.B") * per,
        "systems.B_calls_per_stage": calls("systems.B") / stages,
        "systems.B_s": secs("systems.B") * per,
        "systems.B_us_per_call": secs("systems.B") / calls("systems.B") * 1e6,
        "systems.B_share": self_secs("systems.B") / run_s,
        "quadlie.cayley_conjugate_calls": calls("quadlie.cayley_conjugate") * per,
        "quadlie.cayley_conjugate_s": secs("quadlie.cayley_conjugate") * per,
        "quadlie.cayley_us_per_call": secs("quadlie.cayley_conjugate") / calls("quadlie.cayley_conjugate") * 1e6,
        "quadlie.spectrum_calls": calls("quadlie.spectrum") * per,
        "quadlie.spectrum_s": secs("quadlie.spectrum") * per,
        "diagnostics.record_calls": calls("diagnostics.record") * per,
        "diagnostics.record_s": secs("diagnostics.record") * per,
        "diagnostics.record_share": secs("diagnostics.record") / run_s,
        "diagnostics.record.energy_s": secs("diagnostics.record.energy") * per,
        "diagnostics.record.casimirs_s": secs("diagnostics.record.casimirs") * per,
        "diagnostics.record.membership_s": secs("diagnostics.record.membership") * per,
        "diagnostics.loop_self_s": self_secs("diagnostics.run_recorded") * per,
        "diagnostics.write_csv_s": secs("diagnostics.write_csv") * per,
        "diagnostics.csv_rows": csv_rows * per,
        "diagnostics.csv_bytes": csv_bytes * per,
        "trace.span_coverage": 1.0 - self_secs("diagnostics.run_recorded") / run_s,
    }


def self_shares(tracer: Tracer) -> dict[str, float]:
    """Each span name's self time as a share of run_recorded time, largest first."""
    totals = span_totals(tracer.spans)
    run_s = totals["diagnostics.run_recorded"][1]
    shares = {name: t[2] / run_s for name, t in totals.items() if name != "diagnostics.write_csv"}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
