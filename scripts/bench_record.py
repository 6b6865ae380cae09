"""Record the benchmark's end-to-end medians for one or more source trees.

    python scripts/bench_record.py OUT.json LABEL=TREE [LABEL=TREE ...] [--seeds 101-105] [--traced]

Each TREE is a checkout holding ``perfbench/`` and ``src/``. For every seed
and workload the script runs, in each tree in turn,

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

so that a drift of machine speed falls on all trees alike; the order of the
trees reverses from one seed to the next. It writes, per
tree and workload, whether every run was correct, the sum of their failed
operations, the median of every end-to-end metric over the seeds together
with the values of the single runs, and per tree the ``env`` line of its
first run. Only labels are recorded, not the trees' paths.

With ``--traced``, each seed and workload also gets one

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 1

per tree, run after the untraced runs of that seed and workload and in
the same tree order. Their ``correct``, ``failed`` and per-layer metrics go,
summed and summarised the same way, under a ``layers`` key beside the
workload's ``metrics``. The untraced runs keep their commands, but the
traced runs now sit between them, so a recording meant to compare
end-to-end figures with earlier ones is made without ``--traced``.

With exactly two trees, given as parent then change, every metric also
gets its ``quartiles`` (lower, median, upper, over the seeds), and every
metric of the second tree whose direction ``BENCHMARK.json`` gives gets
``wins``: the number of seeds on which it beat the first tree's run of the
same seed. Ties count for neither tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("recover-dense", "zero-sweep", "certify", "orbit-verify")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(
    tree: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> tuple[dict, dict]:
    """(env line, result line) of one run, untraced unless ``trace`` is 1."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(results: list[dict]) -> dict:
    """Whether every run was correct, their failed operations, and per metric
    its unit, its median over the runs and the single-run values."""
    return {
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {
                "unit": unit["unit"],
                "median": statistics.median(r["metrics"][name]["value"] for r in results),
                "runs": [r["metrics"][name]["value"] for r in results],
            }
            for name, unit in results[0]["metrics"].items()
        },
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("output", type=Path)
    parser.add_argument("trees", nargs="+", help="LABEL=TREE")
    parser.add_argument("--seeds", default="101-105", help="'lo-hi' range of seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--traced", action="store_true", help="add one --trace 1 run per tree")
    args = parser.parse_args(argv)
    pairs = [spec.split("=", 1) for spec in args.trees]
    if any(len(pair) != 2 for pair in pairs):
        parser.error("every tree is given as LABEL=TREE")
    trees = dict(pairs)
    if len(trees) != len(pairs):
        parser.error("repeated LABEL: each tree needs its own label")
    seeds = parse_seeds(args.seeds)
    if not seeds:
        parser.error(f"--seeds {args.seeds} gives no seeds; write the range low-high")

    envs: dict[str, dict] = {}
    runs = {label: {w: [] for w in WORKLOADS} for label in trees}
    traced = {label: {w: [] for w in WORKLOADS} for label in trees}
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
            if args.traced:
                for label, tree in order:
                    _, result = run_once(Path(tree), workload, seed, args.seconds, trace=1)
                    traced[label][workload].append(result)

    command = f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
    record = {
        "command": command,
        **({"traced_command": command.replace("--trace 0", "--trace 1")} if args.traced else {}),
        "seeds": seeds,
        "trees": {},
    }
    for label, per_workload in runs.items():
        workloads = {}
        for workload, results in per_workload.items():
            workloads[workload] = summary(results)
            if args.traced:
                workloads[workload]["layers"] = summary(traced[label][workload])
        record["trees"][label] = {"env": envs[label], "workloads": workloads}
    if len(trees) == 2:
        better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
        first, second = (record["trees"][label]["workloads"] for label in trees)
        for workload, entry in second.items():
            for name, metric in entry["metrics"].items():
                base = first[workload]["metrics"][name]
                base["quartiles"], metric["quartiles"] = quartiles(base["runs"]), quartiles(metric["runs"])
                if name in better:
                    higher = better[name] == "higher"
                    pairs = zip(metric["runs"], base["runs"])
                    metric["wins"] = sum(new > old if higher else new < old for new, old in pairs)
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
