"""Command-line interface.

Subcommands: ``gen`` (write an instance file), ``analyze`` (frame bounds and
spark certificate), ``measure`` (simulate phaseless data), ``recover``
(reconstruct from data), ``bench`` (adversarial zero-pattern success table),
and ``verify`` (analyze + measure + recover + error in one shot).

Exit codes: 0 success, 1 recovery failed, 2 invalid input, 3 budget exceeded.

Reports serialize deterministically for a fixed seed; wall-clock timings are
withheld (null) unless ``--timings`` is passed, so that repeated runs stay
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import (
    BudgetExceededError,
    DimensionMismatchError,
    InconsistentDataError,
    SchemaError,
    SingularMatrixError,
    ZeroMagnitudeError,
)
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
    recover_generic,
    recover_real,
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

RECOVERY_TOL = 1e-7


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if args.output:
        dump_json(report, args.output)
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(dump_json(report))
    else:
        for line in text_lines:
            print(line)


def _config_from_args(args, base: MeasurementConfig) -> MeasurementConfig:
    kwargs = {
        "angles": base.angles,
        "jumps": base.jumps,
        "zero_tol": base.zero_tol,
        "real_mode": base.real_mode,
    }
    if getattr(args, "angles", None):
        parts = args.angles.split(",")
        if len(parts) != 2:
            raise SchemaError("--angles expects 'a1,a2'")
        kwargs["angles"] = PolarizationAngles(float(parts[0]), float(parts[1]))
    if getattr(args, "jumps", None) is not None:
        kwargs["jumps"] = args.jumps
    if getattr(args, "zero_tol", None) is not None:
        kwargs["zero_tol"] = args.zero_tol
    if getattr(args, "real", False):
        kwargs["real_mode"] = True
    return MeasurementConfig(**kwargs)


def _cmd_gen(args) -> int:
    config = _config_from_args(args, MeasurementConfig())
    instance = make_instance(
        args.kind, args.d, args.L, seed=args.seed, theta=args.theta, config=config
    )
    text = dump_json(instance_to_json(instance))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote instance to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _spark_report(certificate) -> dict | None:
    if certificate is None:
        return None
    return {
        "full_spark": certificate.full_spark,
        "witness": list(certificate.witness) if certificate.witness is not None else None,
        "min_abs_det": certificate.min_abs_det,
    }


def _cmd_analyze(args) -> int:
    instance = json_to_instance(load_json(args.instance))
    frame = instance.build_frame()
    started = time.perf_counter()
    analysis = analyze(
        frame, tol=args.tol, spark=not args.no_spark, budget=args.budget
    )
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    report = {
        "command": "analyze",
        "inputs": {"instance_sha256": _sha256(args.instance)},
        "outcome": {
            "dim": frame.dim,
            "length": frame.length,
            "is_frame": analysis.is_frame,
            "lower_bound": analysis.lower_bound,
            "upper_bound": analysis.upper_bound,
            "spark": _spark_report(analysis.spark),
        },
        "wall_time_ms": elapsed_ms if args.timings else None,
    }
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
    _emit(args, report, lines)
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
    instance = json_to_instance(load_json(args.instance))
    frame = instance.build_frame()
    config = _config_from_args(args, instance.config)
    x = _signal_for(instance, args)
    ms = measure(x, frame, config)
    if args.noise > 0.0:
        # exploration plumbing only: additive magnitude noise, no accuracy claims
        rng = np.random.default_rng(instance.seed if instance.seed is not None else 0)
        base = np.clip(ms.base + args.noise * rng.standard_normal(ms.length), 0.0, None)
        aligned = {
            key: max(0.0, value + args.noise * float(rng.standard_normal()))
            for key, value in sorted(ms.aligned.items())
        }
        ms = MeasurementSet(ms.length, ms.jumps, ms.angles, base, aligned)
    text = dump_json(measurement_set_to_json(ms))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote measurements to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _run_recovery(ms, frame, config, method: str):
    if method == "generic":
        return recover_generic(ms, frame, config)
    # auto: real data routes to sign recovery, everything else to the
    # zero-tolerant chain, which on dense data gives recover_generic's result
    if method == "real" or (method == "auto" and config.real_mode):
        return recover_real(ms, frame, config)
    return recover_full_spark(ms, frame, config)


def _cmd_recover(args) -> int:
    instance = json_to_instance(load_json(args.instance))
    frame = instance.build_frame()
    ms = json_to_measurement_set(load_json(args.measurements))
    config = _config_from_args(args, instance.config)
    started = time.perf_counter()
    result = _run_recovery(ms, frame, config, args.method)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    error = None
    if instance.signal is not None:
        error = global_phase_distance(result.estimate, instance.signal)
    report = {
        "command": "recover",
        "inputs": {
            "instance_sha256": _sha256(args.instance),
            "measurements_sha256": _sha256(args.measurements),
        },
        "outcome": {
            "recovery_status": result.status.value,
            "used_indices": list(result.used_indices),
            "component_size": result.component_size,
            "residual": result.residual,
            "global_phase_error": error,
        },
        "wall_time_ms": elapsed_ms if args.timings else None,
    }
    if args.estimate:
        dump_json(recovery_result_to_json(result), args.estimate)
    lines = [
        f"status={result.status.value} component_size={result.component_size} "
        f"residual={result.residual:.3e}"
    ]
    if error is not None:
        lines.append(f"global_phase_error={error:.3e}")
    _emit(args, report, lines)
    return 0 if result.status != RecoveryStatus.FAILED else 1


def _cmd_verify(args) -> int:
    instance = json_to_instance(load_json(args.instance))
    frame = instance.build_frame()
    config = instance.config
    x = _signal_for(instance, args)
    started = time.perf_counter()
    analysis = analyze(frame, spark=not args.no_spark, budget=args.budget)
    ms = measure(x, frame, config)
    result = _run_recovery(ms, frame, config, args.method)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    error = global_phase_distance(result.estimate, x)
    report = {
        "command": "verify",
        "inputs": {"instance_sha256": _sha256(args.instance)},
        "outcome": {
            "dim": frame.dim,
            "length": frame.length,
            "is_frame": analysis.is_frame,
            "lower_bound": analysis.lower_bound,
            "upper_bound": analysis.upper_bound,
            "spark": _spark_report(analysis.spark),
            "recovery_status": result.status.value,
            "used_indices": list(result.used_indices),
            "component_size": result.component_size,
            "residual": result.residual,
            "global_phase_error": error,
        },
        "wall_time_ms": elapsed_ms if args.timings else None,
    }
    lines = [
        f"is_frame={analysis.is_frame} status={result.status.value} "
        f"global_phase_error={error:.3e}"
    ]
    _emit(args, report, lines)
    return 0 if result.status != RecoveryStatus.FAILED else 1


def _parse_lengths(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _cmd_bench(args) -> int:
    dims = [int(v) for v in args.dims.split(",")]
    config_angles = PolarizationAngles(0.0, math.pi / 2.0)
    rows = []
    total_runs = 0
    for dim in dims:
        lengths = _parse_lengths(args.lengths) if args.lengths else list(
            range(dim, min_length(dim, 0) + 1)
        )
        for length in lengths:
            if length < dim:
                continue
            patterns = [p for p in zero_patterns(length, dim - 1)]
            total_runs += len(patterns) * args.trials
            if total_runs > args.budget:
                raise BudgetExceededError(
                    f"bench grid needs {total_runs}+ recoveries, budget is {args.budget}"
                )
            if args.jumps > max(0, dim - 2):
                raise SchemaError(f"--jumps {args.jumps} out of range for dim {dim}")
            config = MeasurementConfig(angles=config_angles, jumps=args.jumps)
            frame = harmonic_frame(dim, length)
            rng = np.random.default_rng(args.seed)
            successes = 0
            attempts = 0
            skipped = 0
            started = time.perf_counter()
            for pattern in patterns:
                for _ in range(args.trials):
                    x = signal_with_zero_pattern(frame, pattern, rng)
                    if x is None:
                        skipped += 1
                        continue
                    ms = measure(x, frame, config)
                    result = recover_full_spark(ms, frame, config)
                    attempts += 1
                    ok = (
                        result.status == RecoveryStatus.RECOVERED
                        and global_phase_distance(result.estimate, x) <= RECOVERY_TOL
                    )
                    successes += int(ok)
            elapsed_ms = 1000.0 * (time.perf_counter() - started)
            rows.append(
                {
                    "d": dim,
                    "L": length,
                    "J": args.jumps,
                    "min_length": min_length(dim, args.jumps),
                    "at_or_above_min_length": length >= min_length(dim, args.jumps),
                    "patterns": len(patterns),
                    "attempts": attempts,
                    "skipped": skipped,
                    "successes": successes,
                    "success_rate": (successes / attempts) if attempts else None,
                    "mean_ms_per_recovery": (elapsed_ms / attempts) if attempts and args.timings else None,
                }
            )
    report = {
        "command": "bench",
        "inputs": {"dims": dims, "jumps": args.jumps, "trials": args.trials, "seed": args.seed},
        "outcome": {"rows": rows},
        "wall_time_ms": None,
    }
    lines = ["  d   L   J  minL  rate      attempts  skipped"]
    for row in rows:
        rate = "n/a" if row["success_rate"] is None else f"{row['success_rate']:.3f}"
        marker = "*" if row["at_or_above_min_length"] else " "
        lines.append(
            f"  {row['d']:<3d} {row['L']:<3d} {row['J']:<2d} {row['min_length']:<4d} {rate:<9s}"
            f" {row['attempts']:<9d} {row['skipped']}{marker}"
        )
    _emit(args, report, lines)
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
    an.add_argument("--tol", type=float, default=1e-10)
    an.add_argument("--budget", type=int, default=2_000_000)
    an.add_argument("--no-spark", action="store_true", help="skip the spark certificate")
    _add_common_output(an)

    me = sub.add_parser("measure", help="simulate phaseless measurements")
    me.add_argument("instance")
    me.add_argument("--x", help="JSON file with the signal (overrides the instance)")
    me.add_argument("--angles", help="polarization angles 'a1,a2'")
    me.add_argument("--jumps", type=int, default=None)
    me.add_argument("--zero-tol", dest="zero_tol", type=float, default=None)
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
    re.add_argument(
        "--method",
        choices=("auto", "generic", "full-spark", "real"),
        default="auto",
    )
    re.add_argument("--estimate", help="write the estimate JSON to this path")
    re.add_argument("--angles", help="polarization angles 'a1,a2'")
    re.add_argument("--jumps", type=int, default=None)
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
    ve.add_argument(
        "--method",
        choices=("auto", "generic", "full-spark", "real"),
        default="auto",
    )
    ve.add_argument("--budget", type=int, default=2_000_000)
    ve.add_argument("--no-spark", action="store_true")
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
    except (
        SchemaError,
        DimensionMismatchError,
        InconsistentDataError,
        ZeroMagnitudeError,
        SingularMatrixError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
