"""Measurement loops of the isork benchmark; run.py is the entry point."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import isork
from checks import check_records
from isork import read_csv, run_recorded, write_csv
from tracing import Tracer, TracedSystem, layer_metrics, missing_entry_points, patched, self_shares
from workloads import LADDER, WORKLOADS, cold_setup, ladder_system, library_state

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60

# Time metrics are reported at reference speed.  The host this benchmark
# was defined on (2 shared CPUs) switches for minutes at a time between
# speed regimes up to 2x apart, which spread raw toda-yoshida4 figures
# by 34% (interquartile range over median) across ten runs.  A fixed
# numpy kernel that does not touch isork is timed next to every
# trajectory and every cold set-up, and each raw time t is reported as
# t * REF_S / (the kernel's time): over 30 five-second windows the raw
# Toda trajectory time ranged over a factor 2.1 while its ratio to the
# kernel stayed within a 20% range.  The kernel is interpreter- and
# small-array-bound like the rigid body and Toda; Zeitlin's large
# matvec and eigh follow it less closely.  REF_S is the kernel's
# typical time on that host, so the figures stay near seconds; raw
# figures are printed and saved as well.
REF_S = 0.005
REF_ITERS = 300
_REF_A = (np.arange(16.0).reshape(4, 4) - 7.5) / 10
_REF_IDX = np.arange(3)


def reference_seconds() -> float:
    """Time of the fixed reference kernel: small matmuls, masks and norms."""
    t0 = time.perf_counter()
    x = np.eye(4)
    for _ in range(REF_ITERS):
        y = x @ _REF_A
        z = np.zeros_like(y)
        z[_REF_IDX, _REF_IDX + 1] = y[_REF_IDX, _REF_IDX + 1]
        x = x - 0.01 * (z - y.T) / (1.0 + float(np.linalg.norm(y)))
    return time.perf_counter() - t0


def cold_sample(make_system, make_state, seed: int):
    """One cold set-up; returns (system, raw seconds, seconds at reference speed).

    The reference kernel runs three times on each side of the set-up, so
    that its median reflects the host's speed while the set-up ran."""
    before = [reference_seconds() for _ in range(3)]
    system, _, seconds = cold_setup(make_system, make_state, seed)
    ref = statistics.median(before + [reference_seconds() for _ in range(3)])
    return system, seconds, seconds * REF_S / ref


def probe(target: str, seed: int) -> dict:
    """Cold set-up in a fresh process: {"setup_s", "setup_ref_s", "rss_mb"}."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", target, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_probe(target: str, seed: int) -> None:
    """Body of a probe process: a workload name, or zeitlin-N<n> from the ladder."""
    if target in WORKLOADS:
        make_system, make_state = WORKLOADS[target].make_system, WORKLOADS[target].make_state
    elif target.removeprefix("zeitlin-N") in {str(N) for N in LADDER}:
        make_system, make_state = ladder_system(int(target.removeprefix("zeitlin-N"))), library_state
    else:
        sys.exit(f"perfbench: unknown probe target {target!r}")
    _, seconds, at_ref = cold_sample(make_system, make_state, seed)
    print(json.dumps({"setup_s": seconds, "setup_ref_s": at_ref, "rss_mb": peak_rss_mb()}))


def run_context() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    loc = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "isork").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "isork": isork.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_isork_loc": loc,
    }


class Trajectories:
    """Runs and checks trajectories of one workload, counting every attempt."""

    def __init__(self, workload, system):
        self.w = workload
        self.system = system
        self.cfg = workload.stepper()
        self.run_recorded = run_recorded
        self.attempted = 0
        self.failed = 0

    def run(self, seed: int, tracer: Tracer | None = None):
        """One operation; returns (run seconds, write seconds, rows, bytes) or None if it failed."""
        w = self.w
        path = OUT / f"{w.name}.csv"
        system, run, write = self.system, self.run_recorded, write_csv
        if tracer is not None:
            tracer.trajectory = self.attempted
            system = TracedSystem(system, tracer)
            run = tracer.wrap("diagnostics.run_recorded", run)
            write = tracer.wrap("diagnostics.write_csv", write)
        self.attempted += 1
        try:
            mu0 = w.make_state(self.system, seed)
            t0 = time.perf_counter()
            records = run(system, mu0, self.cfg, w.h, w.steps, record_every=w.record_every)
            t1 = time.perf_counter()
            write(records, path)
            t2 = time.perf_counter()
            problems = check_records(records, w.steps, w.record_every, w.casimir_bound)
            if not problems and read_csv(path) != records:
                problems = ["CSV does not read back to the records written"]
        except Exception as exc:  # any raise is a failed operation, reported and counted
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"FAILED {w.name} trajectory seed {seed}: " + "; ".join(problems[:5]), file=sys.stderr)
            return None
        return t1 - t0, t2 - t1, len(records), path.stat().st_size


def cycles(seeds, seconds: float):
    """Yield (index, seed) over whole passes through seeds until seconds have passed."""
    start = time.perf_counter()
    i = 0
    while True:
        yield i, seeds[i % len(seeds)]
        i += 1
        if i % len(seeds) == 0 and time.perf_counter() - start >= seconds:
            return


def end_to_end(w, seeds, seconds: float, samples: int):
    """Untraced run.  Each trajectory is followed by one reference kernel
    and scaled by it.  Each seed is summarized by its median repeat, which
    drops stalls caused by other load; summing the per-seed medians weighs
    every seed the same."""
    system, raw0, ref0 = cold_sample(w.make_system, w.make_state, seeds[0])
    probes = [probe(w.name, seeds[0]) for _ in range(samples - 1)]
    setups = [ref0] + [p["setup_ref_s"] for p in probes]
    raw_setups = [raw0] + [p["setup_s"] for p in probes]
    traj = Trajectories(w, system)
    times = {kind: {seed: [] for seed in seeds} for kind in ("run", "total", "raw_run", "raw_total")}
    for _, seed in cycles(seeds, seconds):
        got = traj.run(seed)
        scale = REF_S / reference_seconds()
        if got is not None:
            for kind, t in (("raw_run", got[0]), ("raw_total", got[0] + got[1])):
                times[kind][seed].append(t)
                times[kind.removeprefix("raw_")][seed].append(t * scale)
    timed = [seed for seed in seeds if times["run"][seed]]

    def figures(run, total, setup_s):
        steps_per_s = len(timed) * w.steps / sum(statistics.median(run[s]) for s in timed)
        return steps_per_s, setup_s + statistics.mean(statistics.median(total[s]) for s in timed)

    setup_s = statistics.median(setups)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    raw = {"setup_s": statistics.median(raw_setups)}
    if timed:
        metrics["steps_per_s"], metrics["wall_s"] = figures(times["run"], times["total"], setup_s)
        raw["steps_per_s"], raw["wall_s"] = figures(times["raw_run"], times["raw_total"], raw["setup_s"])
    detail = {"raw": raw, "setup_samples_s": raw_setups, "setup_samples_ref_s": setups, **times}
    return traj, metrics, detail


def traced(w, seeds, seconds: float, tag: str):
    """Traced run: same-seed untraced and traced twins, plus the set-up ladder."""
    system, _, _ = cold_setup(w.make_system, w.make_state, seeds[0])
    metrics = {}
    for N in LADDER:
        got = probe(f"zeitlin-N{N}", seeds[0])
        metrics[f"systems.setup_s.N{N}"] = got["setup_s"]
    metrics[f"systems.setup_rss_mb.N{LADDER[-1]}"] = got["rss_mb"]
    traj = Trajectories(w, system)
    tracer = Tracer()
    ratios = []
    rows = size = 0
    for i, seed in cycles(seeds, seconds):
        got = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with patched(tracer):
                    got[True] = traj.run(seed, tracer)
            else:
                got[False] = traj.run(seed)
        if got[False] is not None and got[True] is not None:
            ratios.append(got[False][0] / got[True][0])
            rows += got[True][2]
            size += got[True][3]
    missing = missing_entry_points(tracer)
    if missing:
        sys.exit(f"perfbench: traced run of {w.name} never called {', '.join(missing)}; "
                 "the layer would read zero")
    if not ratios:
        return traj, metrics, {}
    metrics.update(layer_metrics(tracer, len(ratios), size, rows))
    # Median over same-seed twins of 1 - untraced/traced run_recorded time.
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(ratios)
    tracer.write(OUT / f"spans-{tag}.tsv")
    return traj, metrics, {"self_share": self_shares(tracer), "trajectories": len(ratios)}


def main(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    w = WORKLOADS[workload]
    samples = SETUP_SAMPLES
    if smoke:
        w = replace(w, steps=min(w.steps, max(2 * w.record_every, 20)), pool=2)
        samples = 2
    seeds = w.trajectory_seeds(seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{trace}"
    context = run_context()
    print("context: " + json.dumps(context))
    why = next(x["why"] for x in spec["workloads"] if x["name"] == w.name)
    print(f"workload: {w.name} ({why}); benchmark seed {seed}; trajectory seeds {seeds}")

    if trace:
        traj, metrics, detail = traced(w, seeds, seconds, tag)
    else:
        traj, metrics, detail = end_to_end(w, seeds, seconds, samples)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and traj.failed == 0:
        sys.exit(f"perfbench: metrics not computed: {', '.join(missing)}")
    # Metrics a run with failures could not compute read 0; `correct` is false then.
    emitted = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, m in emitted.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate {traj.failed / traj.attempted:.6g} ({traj.failed} failed of {traj.attempted} attempted)")
    for name, value in detail.get("raw", {}).items():
        print(f"  raw {name:32s} {value:.6g} (not scaled to reference speed)")
    for name, share in detail.get("self_share", {}).items():
        print(f"  self-time share {name:32s} {share:.4f}")
    report = {"workload": w.name, "seed": seed, "trajectory_seeds": seeds, "trace": trace,
              "context": context, "attempted": traj.attempted, "failed": traj.failed,
              "metrics": emitted, "detail": detail}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": traj.failed == 0, "attempted": traj.attempted,
                      "failed": traj.failed, "metrics": emitted}))
    return 0
