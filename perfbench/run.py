"""isork benchmark: end-to-end figures per workload, or a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rigidbody-dense --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): rigidbody-dense, toda-yoshida4,
zeitlin-n33.  One seeded trajectory is one operation; a run cycles
through the workload's trajectory seeds until --seconds have passed.
Every trajectory is checked (checks.py) and its CSV read back; a
trajectory that raises or fails a check counts as failed and is
neither retried nor dropped.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  steps_per_s  macro steps per second inside run_recorded, recording included,
               from each trajectory seed's median repeat
  setup_s      median over cold constructions of system plus seeded state
               (one in this process, the rest in fresh processes)
  wall_s       setup_s plus the mean over seeds of the median
               run_recorded and write_csv
  peak_rss_mb  peak resident memory of this process
Times are scaled to a reference speed measured alongside them, so that
a change of host speed cancels (see REF_S in bench.py); the raw figures
are printed as well.  The error rate is printed with its counts and
carried by the result's `attempted` and `failed`.

--trace 1 reports the per-layer metrics: each trajectory is run
untraced and traced (order alternating), and layer figures come from
the traced twin (tracing.py), per trajectory where they are calls,
seconds, rows or bytes.  trace.overhead_frac compares the twins.  It
also times a cold ZeitlinSphere construction ladder in fresh processes.

--smoke shortens trajectories and set-up sampling for tests.  Reports,
the CSV and spans go to perfbench/out/.  The last stdout line is the
JSON result.  Tests: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One BLAS thread keeps the load to one process on one CPU.  On a shared
# two-CPU machine, five alternating runs of zeitlin-n33 with one and two
# threads gave an interquartile spread of 11% against 17% for
# steps_per_s and 7% against 14% for setup_s.
BLAS_THREADS = "1"


def bootstrap() -> None:
    """Point imports at the checkout's source and pin BLAS threads before numpy loads."""
    if not (SRC / "isork" / "__init__.py").is_file():
        sys.exit(f"perfbench: no isork source under {SRC}; run from the root of a checkout")
    if not (HERE.parent / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json in {HERE.parent}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import isork

    if Path(isork.__file__).resolve().parent != SRC / "isork":
        sys.exit(f"perfbench: imported isork from {isork.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short trajectories, two set-up samples")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    import bench

    if args.probe:
        bench.run_probe(args.probe, args.seed)
        return 0
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    return bench.main(args.workload, args.seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
