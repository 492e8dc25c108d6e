"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from checks import check_records  # noqa: E402
from tracing import ENTRY_POINTS, Tracer, missing_entry_points, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert "error_rate 0 (0 failed of" in done.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "rigidbody-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def short_rigid_run():
    w = replace(WORKLOADS["rigidbody-dense"], steps=6)
    system = w.make_system()
    from isork import run_recorded

    records = run_recorded(system, w.make_state(system, 5), w.stepper(), w.h, w.steps)
    return w, system, records


def test_checker_passes_real_records():
    w, _, records = short_rigid_run()
    assert check_records(records, w.steps, w.record_every, w.casimir_bound) == []


@pytest.mark.parametrize(
    "field, value, expect",
    [
        ("spectral_drift", float("nan"), "step 4: non-finite spectral_drift"),
        ("energy", float("inf"), "step 4: non-finite energy"),
        ("spectral_drift", 2e-11, "step 4: spectral drift"),
        ("membership_residual", 1e-9, "step 4: membership residual"),
        ("casimir_values", (1e3,), "step 4: abs casimir_2 drift"),
    ],
)
def test_checker_flags_doctored_record(field, value, expect):
    w, _, records = short_rigid_run()
    # A NaN after finite values is the case max() would skip.
    records[4] = replace(records[4], **{field: value})
    problems = check_records(records, w.steps, w.record_every, w.casimir_bound)
    assert any(p.startswith(expect) for p in problems), problems


def test_doctored_trajectory_counts_as_failed():
    w, system, records = short_rigid_run()
    records[2] = replace(records[2], spectral_drift=float("nan"))
    bench.OUT.mkdir(exist_ok=True)
    traj = bench.Trajectories(w, system)
    traj.run_recorded = lambda *args, **kwargs: records
    assert traj.run(5) is None
    assert (traj.attempted, traj.failed) == (1, 1)
    traj.run_recorded = lambda *args, **kwargs: records[:2]
    assert traj.run(5) is None
    assert (traj.attempted, traj.failed) == (2, 2)


def test_trace_guard_names_entry_points_never_called():
    w, system, _ = short_rigid_run()
    tracer = Tracer()
    originals = [getattr(owner, attr) for owner, attr, _ in ENTRY_POINTS]
    with patched(tracer):
        pass
    assert [getattr(owner, attr) for owner, attr, _ in ENTRY_POINTS] == originals
    assert "integrator.solve_stage" in missing_entry_points(tracer)
    bench.OUT.mkdir(exist_ok=True)
    traj = bench.Trajectories(w, system)
    with patched(tracer):
        assert traj.run(5, tracer) is not None
    assert missing_entry_points(tracer) == []
    assert [getattr(owner, attr) for owner, attr, _ in ENTRY_POINTS] == originals
