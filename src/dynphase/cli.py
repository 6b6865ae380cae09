"""Command-line interface.

Subcommands: ``gen`` (write an instance file), ``analyze`` (frame bounds and
spark certificate), ``measure`` (simulate phaseless data), ``recover``
(reconstruct from data), ``bench`` (adversarial zero-pattern success table),
and ``verify`` (analyze + measure + recover + error in one shot).

Exit codes: 0 success, 1 recovery failed, 2 invalid input, 3 budget exceeded.
``gen`` also exits 1, with a traceback, when ``random_signal_for`` finds no
dense signal for the instance (a ``RuntimeError``; ROADMAP item 1).

Reports serialize deterministically for a fixed seed; wall-clock timings are
withheld (null) unless ``--timings`` is passed, so that repeated runs stay
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import BudgetExceededError, SchemaError
from .experiments import signal_with_zero_pattern, zero_patterns
from .frames import analyze, harmonic_frame
from .instances import KINDS, make_instance, random_signal_for
from .polarization import PolarizationAngles
from .retrieval import (
    MeasurementConfig,
    MeasurementSet,
    RecoveryStatus,
    global_phase_distance,
    measure,
    min_length,
    recover_full_spark,
)
from .serialization import (
    dump_json,
    instance_to_json,
    json_to_instance,
    json_to_measurement_set,
    json_to_vector,
    load_json,
    measurement_set_to_json,
    recovery_result_to_json,
    vector_to_json,
)
from .vandermonde import DEFAULT_BUDGET

RECOVERY_TOL = 1e-7


def _load(path: str | Path, decode) -> tuple:
    """``decode`` of a JSON file's value, and the SHA-256 of the very bytes parsed."""
    data = Path(path).read_bytes()
    return decode(load_json(path, data)), hashlib.sha256(data).hexdigest()


def _emit(args, inputs: dict, outcome: dict, elapsed_ms: float | None, text_lines) -> None:
    """Write the command's report, with its wall time only under ``--timings``, and its text."""
    report = {
        "command": args.command,
        "inputs": inputs,
        "outcome": outcome,
        "wall_time_ms": elapsed_ms if args.timings else None,
    }
    if args.output:
        dump_json(report, args.output)
    if args.format == "json":
        sys.stdout.write(dump_json(report))
    else:
        for line in text_lines:
            print(line)


def _config_from_args(args, base: MeasurementConfig) -> MeasurementConfig:
    changes = {}
    if getattr(args, "angles", None):
        parts = args.angles.split(",")
        if len(parts) != 2:
            raise SchemaError("--angles expects 'a1,a2'")
        changes["angles"] = PolarizationAngles(float(parts[0]), float(parts[1]))
    if getattr(args, "jumps", None) is not None:
        changes["jumps"] = args.jumps
    if getattr(args, "zero_tol", None) is not None:
        changes["zero_tol"] = args.zero_tol
    if getattr(args, "real", False):
        changes["real_mode"] = True
    return dataclasses.replace(base, **changes)


def _write(text: str, output: str | None, what: str) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
        print(f"wrote {what} to {output}")
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    config = _config_from_args(args, MeasurementConfig())
    instance = make_instance(
        args.kind, args.d, args.L, seed=args.seed, theta=args.theta, config=config
    )
    _write(dump_json(instance_to_json(instance)), args.output, "instance")
    return 0


def _spark_report(certificate) -> dict | None:
    if certificate is None:
        return None
    return {
        "full_spark": certificate.full_spark,
        "witness": list(certificate.witness) if certificate.witness is not None else None,
        "min_abs_det": certificate.min_abs_det,
    }


def _analysis_outcome(frame, analysis) -> dict:
    return {
        "dim": frame.dim,
        "length": frame.length,
        "is_frame": analysis.is_frame,
        "lower_bound": analysis.lower_bound,
        "upper_bound": analysis.upper_bound,
        "spark": _spark_report(analysis.spark),
    }


def _recovery_outcome(result, error: float | None) -> dict:
    return {
        "recovery_status": result.status.value,
        "used_indices": list(result.used_indices),
        "component_size": result.component_size,
        "residual": result.residual,
        "global_phase_error": error,
    }


def _cmd_analyze(args) -> int:
    instance, digest = _load(args.instance, json_to_instance)
    frame = instance.build_frame()
    started = time.perf_counter()
    analysis = analyze(frame, spark=not args.no_spark, budget=args.budget)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    lines = [
        f"dim={frame.dim} length={frame.length}",
        f"is_frame={analysis.is_frame} bounds=({analysis.lower_bound:.6g}, {analysis.upper_bound:.6g})",
    ]
    if analysis.spark is not None:
        lines.append(
            f"full_spark={analysis.spark.full_spark}"
            + (
                f" witness={list(analysis.spark.witness)}"
                if analysis.spark.witness is not None
                else ""
            )
        )
    _emit(args, {"instance_sha256": digest}, _analysis_outcome(frame, analysis), elapsed_ms, lines)
    return 0


def _signal_for(instance, args) -> np.ndarray:
    if getattr(args, "x", None):
        return json_to_vector(load_json(args.x), "x")
    if instance.signal is not None:
        return instance.signal
    if instance.seed is not None:
        rng = np.random.default_rng(instance.seed)
        return random_signal_for(instance.build_frame(), rng, real=instance.config.real_mode)
    raise SchemaError("no signal: the instance has neither 'x' nor 'seed', and --x was not given")


def _cmd_measure(args) -> int:
    if not 0.0 <= args.noise < math.inf:
        raise ValueError(f"--noise must be finite and >= 0, got {args.noise}")
    instance = json_to_instance(load_json(args.instance))
    frame = instance.build_frame()
    config = _config_from_args(args, instance.config)
    x = _signal_for(instance, args)
    ms = measure(x, frame, config)
    if args.noise > 0.0:
        # exploration plumbing only: additive magnitude noise, no accuracy claims
        rng = np.random.default_rng(instance.seed if instance.seed is not None else 0)
        base = np.clip(ms.base + args.noise * rng.standard_normal(ms.length), 0.0, None)
        cells = ms.grid.transpose(2, 0, 1).copy()  # (l, j, k) order, one draw per cell
        exists = ~np.isnan(cells)
        noise = args.noise * rng.standard_normal(np.count_nonzero(exists))
        cells[exists] = np.maximum(0.0, cells[exists] + noise)
        ms = MeasurementSet(ms.length, ms.jumps, ms.angles, base, cells.transpose(1, 2, 0))
    _write(dump_json(measurement_set_to_json(ms)), args.output, "measurements")
    return 0


def _cmd_recover(args) -> int:
    instance, digest = _load(args.instance, json_to_instance)
    frame = instance.build_frame()
    ms, ms_digest = _load(args.measurements, json_to_measurement_set)
    config = _config_from_args(args, instance.config)
    started = time.perf_counter()
    result = recover_full_spark(ms, frame, config)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    error = None
    if instance.signal is not None:
        error = global_phase_distance(result.estimate, instance.signal)
    if args.estimate:
        dump_json(recovery_result_to_json(result), args.estimate)
    lines = [
        f"status={result.status.value} component_size={result.component_size} "
        f"residual={result.residual:.3e}"
    ]
    if error is not None:
        lines.append(f"global_phase_error={error:.3e}")
    inputs = {"instance_sha256": digest, "measurements_sha256": ms_digest}
    _emit(args, inputs, _recovery_outcome(result, error), elapsed_ms, lines)
    return 0 if result.status != RecoveryStatus.FAILED else 1


def _cmd_verify(args) -> int:
    instance, digest = _load(args.instance, json_to_instance)
    frame = instance.build_frame()
    config = instance.config
    x = _signal_for(instance, args)
    started = time.perf_counter()
    analysis = analyze(frame, spark=not args.no_spark, budget=args.budget)
    ms = measure(x, frame, config)
    result = recover_full_spark(ms, frame, config)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    error = global_phase_distance(result.estimate, x)
    lines = [
        f"is_frame={analysis.is_frame} status={result.status.value} "
        f"global_phase_error={error:.3e}"
    ]
    outcome = {**_analysis_outcome(frame, analysis), **_recovery_outcome(result, error)}
    _emit(args, {"instance_sha256": digest}, outcome, elapsed_ms, lines)
    return 0 if result.status != RecoveryStatus.FAILED else 1


def _parse_lengths(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _cmd_bench(args) -> int:
    dims = [int(v) for v in args.dims.split(",")]
    # every input check runs before the first recovery; min_length rejects jumps > dim - 2
    thresholds = [min_length(dim, args.jumps) for dim in dims]
    given = _parse_lengths(args.lengths) if args.lengths else None
    if given == []:
        raise ValueError(f"--lengths {args.lengths} names no length")
    if given and min(given) < max(dims):
        raise ValueError(f"every length must be >= dim, got L={min(given)} for dim={max(dims)}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    grid = [
        (dim, threshold, length)
        for dim, threshold in zip(dims, thresholds)
        for length in (given if given is not None else range(dim, min_length(dim, 0) + 1))
    ]
    # one recovery per trial and zero pattern of at most dim - 1 zeros
    total = args.trials * sum(math.comb(length, m) for dim, _, length in grid for m in range(dim))
    if total > args.budget:
        raise BudgetExceededError(f"bench grid needs {total} recoveries, budget is {args.budget}")
    config = MeasurementConfig(jumps=args.jumps)
    rows = []
    for dim, threshold, length in grid:
        patterns = list(zero_patterns(length, dim - 1))
        frame = harmonic_frame(dim, length)
        rng = np.random.default_rng(args.seed)
        successes = 0
        attempts = 0
        skipped = 0
        elapsed = 0.0  # seconds in measure and recovery, without the sampler
        for pattern in patterns:
            for _ in range(args.trials):
                x = signal_with_zero_pattern(frame, pattern, rng)
                if x is None:
                    skipped += 1
                    continue
                started = time.perf_counter()
                ms = measure(x, frame, config)
                result = recover_full_spark(ms, frame, config)
                elapsed += time.perf_counter() - started
                attempts += 1
                ok = (
                    result.status == RecoveryStatus.RECOVERED
                    and global_phase_distance(result.estimate, x) <= RECOVERY_TOL
                )
                successes += int(ok)
        rows.append(
            {
                "d": dim,
                "L": length,
                "J": args.jumps,
                "min_length": threshold,
                "at_or_above_min_length": length >= threshold,
                "patterns": len(patterns),
                "attempts": attempts,
                "skipped": skipped,
                "successes": successes,
                "success_rate": (successes / attempts) if attempts else None,
                "mean_ms_per_recovery": (
                    1000.0 * elapsed / attempts if attempts and args.timings else None
                ),
            }
        )
    lines = ["  d   L   J  minL  rate      attempts  skipped"]
    for row in rows:
        rate = "n/a" if row["success_rate"] is None else f"{row['success_rate']:.3f}"
        marker = "*" if row["at_or_above_min_length"] else " "
        lines.append(
            f"  {row['d']:<3d} {row['L']:<3d} {row['J']:<2d} {row['min_length']:<4d} {rate:<9s}"
            f" {row['attempts']:<9d} {row['skipped']}{marker}"
        )
    inputs = {"dims": dims, "jumps": args.jumps, "trials": args.trials, "seed": args.seed}
    _emit(args, inputs, {"rows": rows}, None, lines)
    return 0


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write the JSON report to this path")
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="stdout format"
    )
    parser.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in reports"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynphase",
        description="Dynamical frames and phase retrieval from phaseless samples",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("kind", choices=KINDS)
    gen.add_argument("d", type=int)
    gen.add_argument("L", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--theta", type=float, default=math.pi / 4.0, help="rotation angle")
    gen.add_argument("--angles", help="polarization angles 'a1,a2'")
    gen.add_argument("--jumps", type=int, default=None)
    gen.add_argument("--zero-tol", dest="zero_tol", type=float, default=None)
    gen.add_argument("--real", action="store_true", help="real (sign-recovery) mode")
    gen.add_argument("--output", help="write the instance here instead of stdout")

    an = sub.add_parser("analyze", help="frame bounds and spark certificate")
    an.add_argument("instance")
    an.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    an.add_argument("--no-spark", action="store_true", help="skip the spark certificate")
    _add_common_output(an)

    me = sub.add_parser("measure", help="simulate phaseless measurements")
    me.add_argument("instance")
    me.add_argument("--x", help="JSON file with the signal (overrides the instance)")
    me.add_argument("--angles", help="polarization angles 'a1,a2'")
    me.add_argument("--jumps", type=int, default=None)
    me.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="additive magnitude noise level (exploration only, seeded by the instance)",
    )
    me.add_argument("--output", help="write the measurement set here instead of stdout")

    re = sub.add_parser("recover", help="reconstruct a signal from measurements")
    re.add_argument("measurements")
    re.add_argument("instance")
    re.add_argument("--estimate", help="write the estimate JSON to this path")
    re.add_argument("--zero-tol", dest="zero_tol", type=float, default=None)
    _add_common_output(re)

    be = sub.add_parser("bench", help="zero-pattern success-rate table")
    be.add_argument("--dims", default="4", help="comma-separated dimensions")
    be.add_argument("--lengths", help="'lo:hi' range or comma-separated list")
    be.add_argument("--jumps", type=int, default=0)
    be.add_argument("--trials", type=int, default=1, help="signals per zero pattern")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--budget", type=int, default=20_000, help="max recoveries")
    _add_common_output(be)

    ve = sub.add_parser("verify", help="analyze + measure + recover + error")
    ve.add_argument("instance")
    ve.add_argument("--x", help="JSON file with the signal (overrides the instance)")
    ve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ve.add_argument("--no-spark", action="store_true", help="skip the spark certificate")
    _add_common_output(ve)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so that a rebound _cmd_* module attribute is the one run
    command = globals()[f"_cmd_{args.command}"]
    try:
        return command(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # every library error but BudgetExceededError subclasses ValueError. A plain
    # RuntimeError (gen when random_signal_for finds no dense signal) is a defect,
    # not invalid input: it propagates, and the process exits 1 with a traceback
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
