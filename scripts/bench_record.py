"""Record the benchmark's end-to-end medians for one or more source trees.

    python scripts/bench_record.py OUT.json LABEL=TREE [LABEL=TREE ...] [--seeds 101-105]

Each TREE is a checkout holding ``perfbench/`` and ``src/``. For every seed
and workload the script runs, in each tree in turn,

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

so that a drift of machine speed falls on all trees alike; the order of the
trees reverses from one seed to the next. It writes, per
tree and workload, the median of every end-to-end metric over the seeds
together with the values of the single runs, and per tree the ``env`` line
of its first run. Only labels are recorded, not the trees' paths.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("recover-dense", "zero-sweep", "certify", "orbit-verify")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(env line, result line) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("output", type=Path)
    parser.add_argument("trees", nargs="+", help="LABEL=TREE")
    parser.add_argument("--seeds", default="101-105", help="'lo-hi' range of seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.trees)
    seeds = parse_seeds(args.seeds)

    envs: dict[str, dict] = {}
    runs = {label: {w: [] for w in WORKLOADS} for label in trees}
    for i, seed in enumerate(seeds):
        order = list(trees.items())[:: -1 if i % 2 else 1]
        for workload in WORKLOADS:
            for label, tree in order:
                env, result = run_once(Path(tree), workload, seed, args.seconds)
                env.pop("workload"), env.pop("seed")
                envs.setdefault(label, env)
                runs[label][workload].append(result)
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{label} {workload} seed {seed}: ops_per_s {ops:.4g}", file=sys.stderr)

    command = f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
    record = {
        "command": command,
        "seeds": seeds,
        "trees": {},
    }
    for label, per_workload in runs.items():
        workloads = {}
        for workload, results in per_workload.items():
            names = results[0]["metrics"]
            workloads[workload] = {
                "correct": all(r["correct"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    name: {
                        "unit": names[name]["unit"],
                        "median": statistics.median(r["metrics"][name]["value"] for r in results),
                        "runs": [r["metrics"][name]["value"] for r in results],
                    }
                    for name in names
                },
            }
        record["trees"][label] = {"env": envs[label], "workloads": workloads}
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
