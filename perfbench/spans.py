"""In-memory span tracing around the public bindings of ``dynphase``.

The tracer replaces module attributes (the names callers look up at call
time) with wrappers that record one span per call: name, start, end, parent
span and operation id. ``src/`` stays untouched; :meth:`Tracer.uninstall`
restores every original binding. Spans live in flat arrays until
:meth:`Tracer.save` writes them out, and :func:`layer_metrics` derives self
times (a span's duration minus the time its direct children cover) and the
per-layer counts from them.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: (module, attribute, span name). A module attribute is the binding its own
#: functions call through, so wrapping ``retrieval.dual`` times the dual
#: frame built inside ``recover_generic``.
BINDINGS = (
    ("dynphase.retrieval", "measure", "retrieval.measure"),
    ("dynphase.retrieval", "recover_full_spark", "retrieval.recover"),
    ("dynphase.retrieval", "recover_generic", "retrieval.recover"),
    ("dynphase.retrieval", "recover_real", "retrieval.recover"),
    ("dynphase.retrieval", "recover_product", "polarization.product"),
    ("dynphase.retrieval", "recover_product_real", "polarization.product"),
    ("dynphase.retrieval", "dual", "frames.dual"),
    ("dynphase.frames", "full_spark", "vandermonde.full_spark"),
    ("dynphase.frames", "build", "frames.build"),
    ("dynphase.frames.DynamicalFrame", "__post_init__", "frames.validate"),
    ("dynphase.serialization", "build", "frames.build"),
    ("dynphase.serialization", "assemble", "spectral.assemble"),
    ("dynphase.instances", "make_instance", "instances.make_instance"),
    ("dynphase.experiments", "signal_with_zero_pattern", "experiments.signal"),
    ("dynphase.cli", "analyze", "frames.analyze"),
    ("dynphase.cli", "measure", "retrieval.measure"),
    ("dynphase.cli", "recover_full_spark", "retrieval.recover"),
    ("dynphase.cli", "recover_generic", "retrieval.recover"),
    ("dynphase.cli", "recover_real", "retrieval.recover"),
    ("dynphase.cli", "json_to_instance", "serialization.load"),
    ("dynphase.cli", "load_json", "serialization.parse"),
    ("dynphase.cli", "dump_json", "serialization.dump"),
    ("dynphase.cli", "make_instance", "instances.make_instance"),
    ("dynphase.cli", "_cmd_verify", "cli.verify"),
)

#: Root span of every operation the benchmark times.
OP = "op"


def _resolve(path: str):
    """A module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records nested spans into flat arrays while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.op = -1  # operation id; -1 marks set-up
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        name_id = self._id(name)
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn):
        """Call ``fn()`` inside a span of its own (the benchmark's operations)."""
        idx = self._open(self._id(name))
        try:
            return fn()
        finally:
            self._close(idx)

    def install(self) -> None:
        if self._bindings is None:
            self._bindings, missing = [], []
            for path, attr, name in BINDINGS:
                owner = _resolve(path)
                original = getattr(owner, attr, None)
                if original is None:
                    missing.append(f"{path}.{attr}")
                else:
                    self._bindings.append((owner, attr, original, self.wrap(original, name)))
            if missing:
                print(f"trace: bindings not found, not traced: {missing}", file=sys.stderr)
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _count_recovery(counts: Counter, args, result) -> None:
    counts["retrieval." + {"Recovered": "recovered", "RecoveredPartialChain": "partial"}.get(
        result.status.value, "failed"
    )] += 1


def _count_signal(counts: Counter, args, result) -> None:
    if result is None:
        counts["experiments.unrealizable"] += 1


def _count_minors(counts: Counter, args, result) -> None:
    d, L = np.shape(args[0])
    counts["vandermonde.minors"] += math.comb(L, d)


_COUNTERS = {
    "retrieval.recover": _count_recovery,
    "experiments.signal": _count_signal,
    "vandermonde.full_spark": _count_minors,
}


def _median_us(values_ns: np.ndarray) -> float:
    return float(np.median(values_ns)) / 1e3 if values_ns.size else 0.0


def layer_metrics(tracer: Tracer, rounds: int, setup_counts: Counter) -> dict[str, float]:
    """Per-layer numbers from the recorded spans.

    ``.us`` is the median inclusive duration per call and ``.self_us`` the
    median self time per call, over set-up and operation spans alike.
    Counts are per round of operations (every round repeats the same
    inputs, so they are exact); ``setup_*`` counts cover one set-up.
    """
    a = tracer.arrays()
    dur = a["end_ns"] - a["start_ns"]
    has_parent = a["parent"] >= 0
    child = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    ) if dur.size else np.zeros(0)
    self_ns = dur - child
    in_ops = a["op_id"] >= 0
    ids = {name: i for i, name in enumerate(tracer.names)}

    def select(name: str, ops_only: bool = False) -> np.ndarray:
        mask = a["name_id"] == ids.get(name, -1)
        return mask & in_ops if ops_only else mask

    def us(name: str) -> float:
        return _median_us(dur[select(name)])

    def self_us(name: str) -> float:
        return _median_us(self_ns[select(name)])

    def per_round(name: str) -> float:
        return int(np.count_nonzero(select(name, ops_only=True))) / rounds

    counts = {key: value / rounds for key, value in tracer.counts.items()}
    outcomes = sum(counts.get(f"retrieval.{k}", 0) for k in ("recovered", "partial", "failed"))
    spark = select("vandermonde.full_spark", ops_only=True)
    minors = counts.get("vandermonde.minors", 0) * rounds
    recover_ns = float(dur[select("retrieval.recover", ops_only=True)].sum())
    product_ns = float(dur[select("polarization.product", ops_only=True)].sum())
    return {
        "frames.build.us": us("frames.build"),
        "frames.build.calls": per_round("frames.build"),
        "frames.build.setup_calls": setup_counts["frames.build"],
        "frames.validate.us": us("frames.validate"),
        "frames.analyze.self_us": self_us("frames.analyze"),
        "frames.dual.us": us("frames.dual"),
        "vandermonde.full_spark.us": us("vandermonde.full_spark"),
        "vandermonde.minors": counts.get("vandermonde.minors", 0),
        "vandermonde.us_per_minor": float(dur[spark].sum()) / 1e3 / minors if minors else 0.0,
        "retrieval.measure.us": us("retrieval.measure"),
        "retrieval.recover.self_us": self_us("retrieval.recover"),
        "retrieval.recovered": counts.get("retrieval.recovered", 0),
        "retrieval.partial": counts.get("retrieval.partial", 0),
        "retrieval.failed": counts.get("retrieval.failed", 0),
        "retrieval.recovered_ratio": counts.get("retrieval.recovered", 0) / outcomes
        if outcomes
        else 0.0,
        "polarization.products": per_round("polarization.product"),
        "polarization.us_per_product": us("polarization.product"),
        "polarization.share": product_ns / recover_ns if recover_ns else 0.0,
        "experiments.signal.us": us("experiments.signal"),
        "experiments.unrealizable": setup_counts["experiments.unrealizable"],
        "instances.make_instance.us": us("instances.make_instance"),
        "spectral.assemble.us": us("spectral.assemble"),
        "serialization.load.self_us": self_us("serialization.load"),
        "serialization.parse.us": us("serialization.parse"),
        "serialization.dump.us": us("serialization.dump"),
        "cli.verify.self_us": self_us("cli.verify"),
        "op.us": us(OP),
        "op.self_us": self_us(OP),
        "trace.spans": int(np.count_nonzero(in_ops)) / rounds,
    }


def setup_counts(tracer: Tracer) -> Counter:
    """Span counts and outcome counters recorded so far (during set-up)."""
    counts = Counter(tracer.names[i] for i in tracer.name_id)
    counts.update(tracer.counts)
    return counts
