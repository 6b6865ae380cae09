"""dynphase benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload recover-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

``--workload`` names one of ``recover-dense``, ``zero-sweep``, ``certify``
and ``orbit-verify`` (see ``BENCHMARK.json`` for why each exists), or
``all`` to run the four in one process. Inputs derive from ``--seed`` only.
Every operation is checked against references the benchmark computes
itself. An operation that fails on a known library defect is left out of
the timed rounds after its first run and lowers ``success_rate``; any other
failure counts as a failed operation in every round and makes the run
incorrect.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
library's module-level bindings, records spans in memory, writes them to
``.perfbench_out/trace-<workload>.npz`` and reports per-layer metrics plus
the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Operations are timed in thread CPU time and scaled to a nominal machine
speed by a reference kernel (see ``calibrate.py``); the text output also
gives the uncalibrated rate. BLAS runs single-threaded (the largest matrix
is 32 x 272), which keeps timings steady; the environment line records it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("recover-dense", "zero-sweep", "certify", "orbit-verify")


def prepare() -> None:
    """Pin BLAS threads before numpy loads, and put the sources on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "dynphase" / "__init__.py").is_file():
        raise ImportError(f"no dynphase package under {src}")
    sys.path.insert(0, str(src))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    print("env " + json.dumps({**harness.environment(), "workload": args.workload, "seed": args.seed}))
    workdir = OUT / f"work-{os.getpid()}"
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                result, lines = harness.measure_traced(
                    WORKLOADS[name], args.seed, args.seconds, workdir, OUT / f"trace-{name}.npz", args.tiny
                )
            else:
                result, lines = harness.measure(WORKLOADS[name], args.seed, args.seconds, workdir, args.tiny)
            results[name] = result
            for line in lines:
                print(line)
            for metric, (value, unit) in result["metrics"].items():
                print(f"  {metric:32s} {value:14.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(names) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{n}.{m}": vu for n, r in results.items() for m, vu in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
