"""Set-up, warm-up, timed loops and the metrics of one workload run."""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import time
from collections import Counter
from pathlib import Path

import numpy as np

import spans as tracing
from calibrate import NOMINAL_NS, Calibrator
from workloads import Failure, Slot, Workload

#: Set-up is repeated at least this often, and until ``SETUP_SECONDS`` of
#: wall time have passed; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

#: Percentiles printed beside the metrics.
LADDER = (50, 75, 85, 90, 95, 99, 99.9)

#: Wall seconds between two samples of the calibration kernel.
WINDOW_S = 0.1


def _warm_up(slots: list[Slot]) -> None:
    """One untimed operation per configuration."""
    seen = set()
    for slot in slots:
        if slot.run is not None and slot.key not in seen:
            seen.add(slot.key)
            try:
                slot.run()
            except Exception:  # failures are counted in the timed loop
                pass


def _check(slot: Slot, out) -> str | None:
    """Why ``out`` fails the slot's check, or None when it passes."""
    try:
        slot.check(out)
    except Failure as exc:
        return str(exc)
    return None


class Tally:
    """Outcome and latency of every operation attempted.

    Operations are timed in CPU time of the calling thread (BLAS is pinned to
    it). With a calibrator, the loop is cut into windows of ``WINDOW_S``;
    the kernel is sampled at each window edge and the window's times are
    scaled to nominal speed by the mean of the two samples around it.
    """

    def __init__(self, calibrator: Calibrator | None = None):
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0.0  # time spent inside operations
        self.raw_busy_ns = 0  # the same, uncalibrated
        self.wall_ns = 0
        self.latency_ns: list[float] = []  # successful operations only
        self.reasons: Counter = Counter()  # (configuration, reason) of failures
        self.kernel_ns: list[int] = []
        self._calibrator = calibrator
        self._window: list[tuple[int, bool]] = []  # (CPU ns, succeeded) awaiting scaling
        if calibrator is not None:
            self.kernel_ns.append(calibrator.sample())
        self._window_end = time.perf_counter() + WINDOW_S

    def visit(self, slot: Slot, call, drop: frozenset[str] = frozenset()) -> str | None:
        """Time one operation and check it; return why it failed, or None.

        A failure whose reason is in ``drop`` is returned without being tallied.
        """
        wall, t0 = time.perf_counter_ns(), time.thread_time_ns()
        try:
            out = call()
        except Exception as exc:  # an operation that raises has failed
            out, reason = None, f"raised {type(exc).__name__}"
        else:
            reason = None
        elapsed = time.thread_time_ns() - t0
        if reason is None:
            reason = _check(slot, out)
        if reason in drop:
            return reason
        self.attempted += 1
        self.wall_ns += time.perf_counter_ns() - wall
        if reason is not None:
            self._fail(slot, reason)
        self._window.append((elapsed, reason is None))
        if time.perf_counter() >= self._window_end:
            self.flush()
        return reason

    def _fail(self, slot: Slot, reason: str) -> None:
        self.failed += 1
        self.reasons[(slot.key, reason)] += 1

    def flush(self) -> None:
        """Close the current window: scale its times and start the next."""
        factor = 1.0
        if self._calibrator is not None:
            self.kernel_ns.append(self._calibrator.sample())
            factor = NOMINAL_NS / ((self.kernel_ns[-2] + self.kernel_ns[-1]) / 2)
        for elapsed, ok in self._window:
            self.raw_busy_ns += elapsed
            self.busy_ns += elapsed * factor
            if ok:
                self.latency_ns.append(elapsed * factor)
        self._window.clear()
        self._window_end = time.perf_counter() + WINDOW_S

    def ops_per_s(self) -> float:
        """Operations attempted per second spent in them."""
        return self.attempted / (self.busy_ns / 1e9)

    def percentile_us(self, pct: float) -> float:
        return float(np.percentile(self.latency_ns, pct)) / 1e3


class Mix:
    """The operations of the timed rounds, in a fixed shuffled order.

    Slots whose set-up failed are left out at once. The first round also
    leaves out every operation that fails on one of the workload's known
    defects: that visit is not tallied, and the operation does not run again.
    Inputs are fixed and the library is deterministic, so every later round
    repeats the same operations with the same outcomes, and runs of one seed
    attempt the same mix however many rounds they fit. ``defects`` counts
    what was left out by (configuration, reason), and ``success_rate`` is the
    share of operations not left out. An operation that fails for another
    reason stays in, and every visit to it counts as failed.
    """

    def __init__(self, workload: Workload, slots: list[Slot], seed: int):
        self.name = workload.name
        self.known = workload.known_defects
        self.slots = slots
        self.defects = Counter((slot.key, slot.dead_reason) for slot in slots if slot.run is None)
        # a fixed shuffle, so that slow phases of the machine hit every configuration alike
        shuffled = np.random.default_rng([seed, 1]).permutation(len(slots))
        self.order = [int(i) for i in shuffled if slots[i].run is not None]
        self.first = True

    def success_rate(self) -> float:
        return 1.0 - sum(self.defects.values()) / len(self.slots)

    def round(self, tally: Tally, call=None) -> None:
        """Visit every operation once; ``call(i, slot)`` replaces ``slot.run``."""
        drop = self.known if self.first else frozenset()
        self.first = False
        kept = []
        for i in self.order:
            slot = self.slots[i]
            reason = tally.visit(slot, slot.run if call is None else (lambda: call(i, slot)), drop)
            if reason in drop:
                self.defects[(slot.key, reason)] += 1
            else:
                kept.append(i)
        if not kept:
            raise RuntimeError(f"no operation of {self.name} can be timed: {dict(self.defects)}")
        self.order = kept


def _repeat(seconds: float, one_round) -> int:
    """Run whole rounds until ``seconds`` of wall time have passed; return their number.

    Only whole rounds run, so every run measures the same mix of operations.
    """
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        one_round()
        rounds += 1
        if time.perf_counter() >= deadline:
            return rounds


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _set_up(workload: Workload, seed: int, workdir: Path, tiny: bool) -> list[Slot]:
    return workload.setup(np.random.default_rng(seed), _fresh_dir(workdir), tiny)


def _verdict(workload: Workload, defects: Counter, *tallies: Tally) -> dict:
    """Correct when some operation succeeded and every failure is a known defect."""
    reasons = {reason for _, reason in defects}
    reasons |= {reason for tally in tallies for _, reason in tally.reasons}
    return {
        "correct": not reasons - workload.known_defects and any(t.latency_ns for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
    }


def _failure_lines(defects: Counter, *tallies: Tally) -> list[str]:
    timed = sum((tally.reasons for tally in tallies), Counter())
    return [
        f"  left out: {count:4d} of {key}: {reason}" for (key, reason), count in sorted(defects.items())
    ] + [
        f"  failed {count:6d}x  {key}: {reason}" for (key, reason), count in sorted(timed.items())
    ]


def measure(workload: Workload, seed: int, seconds: float, workdir: Path, tiny: bool = False):
    """Untraced run: the end-to-end metrics. Returns (result, text lines)."""
    calibrator = Calibrator()
    setup_s = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup_s) < SETUP_REPEATS or time.perf_counter() < deadline:
        before, t0 = calibrator.sample(), time.thread_time_ns()
        slots = _set_up(workload, seed, workdir, tiny)
        _warm_up(slots)
        elapsed = time.thread_time_ns() - t0
        setup_s.append(elapsed / 1e9 * NOMINAL_NS / ((before + calibrator.sample()) / 2))
    workload.attach_checks(slots)
    mix = Mix(workload, slots, seed)
    gc.collect()
    tally = Tally(calibrator)
    rounds = _repeat(seconds, lambda: mix.round(tally))
    tally.flush()

    ok = bool(tally.latency_ns)
    metrics = {
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "op_p50_us": (tally.percentile_us(50) if ok else 0.0, "us"),
        "op_tail_us": (tally.percentile_us(workload.tail_pct) if ok else 0.0, "us"),
        "success_rate": (mix.success_rate(), "ratio"),
        "setup_s": (float(np.median(setup_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tail_ns = 1e3 * metrics["op_tail_us"][0]
    beyond = sum(1 for v in tally.latency_ns if v > tail_ns)
    lines = [
        f"{workload.name}: {tally.attempted} attempted, {tally.failed} failed "
        f"(failure_rate {tally.failed / tally.attempted:.4f}) in {rounds} rounds of {len(mix.order)}, "
        f"{tally.wall_ns / 1e9:.2f} s wall and {tally.raw_busy_ns / 1e9:.2f} s CPU inside operations",
        f"  setup_s is the median of {len(setup_s)} set-ups; success_rate is the share of "
        f"{len(slots)} operations not left out for a known defect",
        f"  calibration: kernel median {np.median(tally.kernel_ns) / 1e3:.0f} us against "
        f"{NOMINAL_NS / 1e3:.0f} us nominal; uncalibrated ops_per_s "
        f"{tally.attempted / (tally.raw_busy_ns / 1e9):.6g}",
        f"  op_tail_us is p{workload.tail_pct:g} of {len(tally.latency_ns)} successful operations, "
        f"{beyond} beyond it" + ("" if beyond >= 10 else " (unresolved: fewer than ten)"),
        "  latency us: " + "  ".join(
            f"p{pct:g} {tally.percentile_us(pct):.6g}" for pct in LADDER if ok
        ),
        *_failure_lines(mix.defects, tally),
    ]
    return {**_verdict(workload, mix.defects, tally), "metrics": metrics}, lines


def measure_traced(workload: Workload, seed: int, seconds: float, workdir: Path, trace_path: Path, tiny: bool = False):
    """Traced run: per-layer metrics. Returns (result, text lines).

    Set-up runs traced once. Then untraced and traced rounds alternate for
    ``seconds``, so that both see the same phases of machine speed; the two
    rates give the tracing overhead. Times here are uncalibrated, like the
    spans they are compared with.
    """
    tracer = tracing.Tracer()
    tracer.install()
    try:
        slots = _set_up(workload, seed, workdir, tiny)
    finally:
        tracer.uninstall()
    setup_counts = tracing.setup_counts(tracer)
    tracer.counts.clear()
    _warm_up(slots)
    workload.attach_checks(slots)
    mix = Mix(workload, slots, seed)

    def traced_call(i, slot):
        tracer.op = i
        return tracer.span(tracing.OP, slot.run)

    def pair():
        mix.round(plain)
        tracer.install()
        try:
            mix.round(traced, traced_call)
        finally:
            tracer.uninstall()

    plain, traced = Tally(), Tally()
    gc.collect()
    rounds = _repeat(seconds, pair)
    plain.flush()
    traced.flush()
    tracer.save(trace_path)

    metrics = tracing.layer_metrics(tracer, rounds, setup_counts)
    metrics.update(
        {
            "defects.known": sum(mix.defects.values()),
            "trace.ops_per_s": traced.ops_per_s(),
            "trace.untraced_ops_per_s": plain.ops_per_s(),
            "trace.overhead": plain.ops_per_s() / traced.ops_per_s() - 1.0,
            "trace.op_p50_us": traced.percentile_us(50) if traced.latency_ns else 0.0,
            "trace.untraced_op_p50_us": plain.percentile_us(50) if plain.latency_ns else 0.0,
        }
    )
    lines = [
        f"{workload.name} (traced): {rounds} traced rounds of {len(mix.order)} operations, "
        f"{metrics['trace.spans']:.0f} spans per round written to {trace_path.name}",
        *_failure_lines(mix.defects, plain, traced),
    ]
    units = dict(PER_LAYER_UNITS)
    return {
        **_verdict(workload, mix.defects, plain, traced),
        "metrics": {name: (value, units[name]) for name, value in metrics.items()},
    }, lines


#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = (
    ("frames.build.us", "us"),
    ("frames.build.calls", "count"),
    ("frames.build.setup_calls", "count"),
    ("frames.validate.us", "us"),
    ("frames.analyze.self_us", "us"),
    ("frames.dual.us", "us"),
    ("vandermonde.full_spark.us", "us"),
    ("vandermonde.minors", "count"),
    ("vandermonde.us_per_minor", "us"),
    ("retrieval.measure.us", "us"),
    ("retrieval.recover.self_us", "us"),
    ("retrieval.recovered", "count"),
    ("retrieval.partial", "count"),
    ("retrieval.failed", "count"),
    ("retrieval.recovered_ratio", "ratio"),
    ("polarization.products", "count"),
    ("polarization.us_per_product", "us"),
    ("polarization.share", "ratio"),
    ("experiments.signal.us", "us"),
    ("experiments.unrealizable", "count"),
    ("instances.make_instance.us", "us"),
    ("spectral.assemble.us", "us"),
    ("serialization.load.self_us", "us"),
    ("serialization.parse.us", "us"),
    ("serialization.dump.us", "us"),
    ("cli.verify.self_us", "us"),
    ("op.us", "us"),
    ("op.self_us", "us"),
    ("defects.known", "count"),
    ("trace.spans", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("trace.op_p50_us", "us"),
    ("trace.untraced_op_p50_us", "us"),
)


def environment() -> dict:
    """Interpreter, numpy, BLAS and machine facts recorded beside the results."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


def _blas_threads() -> int | str:
    """The BLAS thread count in effect, read from OpenBLAS when it is loaded."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
