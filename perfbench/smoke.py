"""Smoke check of the benchmark itself; run from the repository root::

    python3 perfbench/smoke.py

1. Each workload runs at its tiny size, untraced and traced, and prints
   exactly the metrics ``BENCHMARK.json`` names, with their units.
2. Recovery fed a deliberately corrupted measurement reports failures.
3. Without the library sources the benchmark exits non-zero and prints no
   result.

Exits non-zero on the first problem.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = run.ROOT / "BENCHMARK.json"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics() -> None:
    spec = json.loads(BENCH.read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = _run(run.ROOT, "--workload", workload["name"], "--trace", str(trace), "--tiny")
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                sys.exit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{where}: result keys {sorted(result)}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                sys.exit(f"{where}: metrics {units} differ from BENCHMARK.json {expected[trace]}")
            if not result["correct"] or result["attempted"] < 1:
                sys.exit(f"{where}: not correct\n{proc.stdout}")
            print(f"ok  {where}: {result['attempted']} operations, {len(units)} metrics")


def _corrupt(ms):
    """Inflate one aligned magnitude by 10%."""
    from dynphase.retrieval import MeasurementSet

    aligned = dict(ms.aligned)
    aligned[(0, 1, 1)] *= 1.1
    return MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, aligned)


def check_corruption() -> None:
    run.prepare()
    import harness
    import workloads

    dense = workloads.WORKLOADS["recover-dense"]
    corrupted = dataclasses.replace(
        dense, setup=functools.partial(workloads._dense_setup, corrupt=_corrupt)
    )
    result, _ = harness.measure(corrupted, 1, 0.5, run.OUT / "smoke-work", tiny=True)
    shutil.rmtree(run.OUT / "smoke-work", ignore_errors=True)
    failure_rate = result["failed"] / result["attempted"]
    if failure_rate == 0 or result["correct"]:
        sys.exit(f"corrupted measurements went unnoticed: {result}")
    print(f"ok  corrupted measurements: failure_rate {failure_rate:.3f}, correct={result['correct']}")


def check_without_sources() -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH, bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "--workload", "recover-dense", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  without sources: exit {proc.returncode}, no result")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_without_sources()
    print("smoke: ok")
