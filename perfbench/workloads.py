"""The four workloads: inputs from a seed, one callable per operation, checks.

A workload's set-up returns a list of :class:`Slot`, one per operation of a
round. The runner times ``Slot.run`` and passes its result to
``Slot.check``, which the workload attaches after set-up from references it
computes itself (:mod:`reference`). A slot whose set-up already failed (an
instance generator that raised, a zero pattern with no signal) has no
``run``. Such a slot, and one whose first run fails on a known defect, is
left out of the timed rounds and lowers ``success_rate`` (see
``harness.Mix``).

Library functions are looked up as module attributes at call time, so that
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dynphase import cli, experiments, frames, instances, retrieval

import reference


#: Known defects of the library, counted against ``success_rate``:
#: ``gen`` gives up on a dense signal (circulant 6/12 for most seeds, now and
#: then random-diag 12/40 and jordan 16/24); ``verify`` on harmonic 10/30
#: exceeds the spark budget and exits 3; ``recover_generic`` misses the
#: 1e-7 tolerance on about half of the jordan 16/24 instances (and rarely
#: on jordan 8/16, circulant 6/12 and random-diag 12/40); an ill-conditioned
#: jordan 16/24 orbit now and then fails ``dual`` and ``verify`` exits 2; and
#: ``signal_with_zero_pattern`` cannot realize some patterns.
GEN_FAILS = "gen raised RuntimeError"
TOO_FAR = "error above tolerance"


class Failure(Exception):
    """An operation's output failed its check; the message names the reason."""


def _unchecked(out) -> None:
    raise Failure("no check attached")


@dataclass
class Slot:
    key: str  # the configuration this operation belongs to
    run: Callable[[], object] | None
    ref: object = None  # what the checks need: truth, zero pattern, instance path
    check: Callable[[object], None] = _unchecked
    dead_reason: str = ""  # why ``run`` is None


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is recorded in BENCHMARK.json
    #: Percentile reported as ``op_tail_us``. It is fixed per workload, so
    #: that runs of different speed compare the same percentile. It keeps
    #: at least ten successful samples beyond it in a 20-second run and falls
    #: inside one configuration's block of latencies, not on the edge between
    #: two. p99 spread up to 16% between seeds where p95 spread 3-7%, so p95
    #: is used; certify completes about a hundred operations, hence p85.
    tail_pct: float
    #: Failure reasons that are known defects of the library. Any other
    #: failure marks the run as not correct and is timed as a failed operation.
    known_defects: frozenset[str]
    setup: Callable[[np.random.Generator, Path, bool], list[Slot]]
    attach_checks: Callable[[list[Slot]], None]


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# ---------------------------------------------------------------- recover-dense

DENSE_CONFIGS = (("harmonic", 4, 6), ("random-diag", 8, 20), ("jordan", 8, 20), ("harmonic", 16, 72))
DENSE_TINY = (("harmonic", 3, 4), ("random-diag", 4, 8))
DENSE_SIGNALS = 16


def _recover_op(x, frame, config, corrupt=None):
    def run():
        ms = retrieval.measure(x, frame, config)
        if corrupt is not None:
            ms = corrupt(ms)
        return retrieval.recover_full_spark(ms, frame, config)

    return run


def _dense_setup(rng, workdir, tiny, corrupt=None):
    slots = []
    signals = 2 if tiny else DENSE_SIGNALS
    for kind, d, L in DENSE_TINY if tiny else DENSE_CONFIGS:
        for jumps in (0, 1):
            key = f"{kind} {d}/{L} J={jumps}"
            config = retrieval.MeasurementConfig(jumps=jumps)
            (seed,) = _seeds(rng, 1)
            try:
                instance = instances.make_instance(kind, d, L, seed=seed, config=config)
                frame = instance.build_frame()
                xs = [instance.signal] + [
                    instances.random_signal_for(frame, rng) for _ in range(signals - 1)
                ]
            except RuntimeError as exc:
                slots += [Slot(key, None, dead_reason=f"set-up raised {type(exc).__name__}")] * signals
                continue
            slots += [Slot(key, _recover_op(x, frame, config, corrupt), ref=x) for x in xs]
    return slots


def _check_recovered(truth):
    def check(result):
        if result.status is not retrieval.RecoveryStatus.RECOVERED:
            raise Failure(f"status {result.status.value}")
        if reference.phase_distance(result.estimate, truth) > reference.RECOVERY_TOL:
            raise Failure(TOO_FAR)

    return check


def _dense_checks(slots):
    for slot in slots:
        if slot.run is not None:
            slot.check = _check_recovered(slot.ref)


# ------------------------------------------------------------------- zero-sweep

ZERO_GRID = ((5, range(6, 10), 0), (6, range(9, 13), 0), (6, range(8, 11), 1))
ZERO_TINY = ((4, range(4, 7), 0),)


def _zero_setup(rng, workdir, tiny):
    slots = []
    for d, lengths, jumps in ZERO_TINY if tiny else ZERO_GRID:
        config = retrieval.MeasurementConfig(jumps=jumps)
        for L in lengths:
            key = f"harmonic {d}/{L} J={jumps}"
            frame = frames.harmonic_frame(d, L)
            for pattern in experiments.zero_patterns(L, d - 1):
                x = experiments.signal_with_zero_pattern(frame, pattern, rng)
                if x is None:
                    slots.append(Slot(key, None, dead_reason="unrealizable zero pattern"))
                else:
                    slots.append(Slot(key, _recover_op(x, frame, config), ref=(x, pattern, d, L, jumps)))
    return slots


def _zero_checks(slots):
    for slot in slots:
        if slot.run is None:
            continue
        x, pattern, d, L, jumps = slot.ref
        if reference.pattern_recoverable(d, L, pattern, jumps):
            slot.check = _check_recovered(x)
        else:
            slot.check = _check_failed


def _check_failed(result):
    if result.status is not retrieval.RecoveryStatus.FAILED:
        raise Failure(f"status {result.status.value} where the chain oracle says Failed")


# -------------------------------------------------------- certify, orbit-verify

CERTIFY_CONFIGS = (
    ("harmonic", 8, 16),
    ("random-diag", 8, 16),
    ("jordan", 8, 16),
    ("circulant", 6, 12),
    ("harmonic", 6, 18),
    ("harmonic", 10, 30),
)
CERTIFY_TINY = (("harmonic", 4, 8), ("random-diag", 4, 8), ("jordan", 4, 8), ("circulant", 4, 8))
CERTIFY_INSTANCES = 12

ORBIT_CONFIGS = (
    ("harmonic", 16, 72),
    ("harmonic", 32, 272),
    ("random-diag", 16, 24),
    ("jordan", 16, 24),
    ("random-diag", 12, 40),
)
ORBIT_TINY = (("harmonic", 4, 8), ("random-diag", 4, 6), ("jordan", 4, 6))
ORBIT_INSTANCES = 32


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_setup(configs, tiny_configs, per_config, extra_args):
    def setup(rng, workdir, tiny):
        slots = []
        count = 2 if tiny else per_config
        for kind, d, L in tiny_configs if tiny else configs:
            key = f"{kind} {d}/{L}"
            for i, seed in enumerate(_seeds(rng, count)):
                path = workdir / f"{kind}-{d}-{L}-{i}.json"
                try:
                    code, _ = _run_cli(["gen", kind, str(d), str(L), "--seed", str(seed), "--output", str(path)])
                except RuntimeError as exc:
                    slots.append(Slot(key, None, dead_reason=f"gen raised {type(exc).__name__}"))
                    continue
                if code != 0:
                    slots.append(Slot(key, None, dead_reason=f"gen exit {code}"))
                    continue
                slots.append(Slot(key, _verify_op(path, extra_args), ref=path))
        return slots

    return setup


def _verify_op(path, extra_args):
    argv = ["verify", str(path), "--format", "json", *extra_args]
    return lambda: _run_cli(argv)


def _verify_checks(spark: bool):
    def attach(slots):
        for slot in slots:
            if slot.run is None:
                continue
            frame_spec = json.loads(slot.ref.read_text())["frame"]
            synthesis = reference.orbit(frame_spec)
            expect_spark = None
            if spark:
                # harmonic orbits are row subsets of a DFT matrix: full spark
                expect_spark = "harmonic" in frame_spec or reference.full_spark(synthesis)
            slot.check = _check_verify(synthesis.shape, reference.is_frame(synthesis), expect_spark)

    return attach


def _check_verify(shape, is_frame, expect_spark):
    def check(out):
        code, text = out
        if code != 0:
            raise Failure(f"exit {code}")
        outcome = json.loads(text)["outcome"]
        if (outcome["dim"], outcome["length"]) != shape:
            raise Failure("wrong frame shape")
        if outcome["is_frame"] != is_frame:
            raise Failure("wrong frame verdict")
        verdict = outcome["spark"]["full_spark"] if outcome["spark"] is not None else None
        if verdict != expect_spark:
            raise Failure("wrong spark verdict")
        if outcome["recovery_status"] != "Recovered":
            raise Failure(f"status {outcome['recovery_status']}")
        # verify does not hand out its estimate, so its own error figure is checked
        if not outcome["global_phase_error"] <= reference.RECOVERY_TOL:
            raise Failure(TOO_FAR)

    return check


# ---------------------------------------------------------------------- registry

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recover-dense",
            tail_pct=95.0,
            known_defects=frozenset(),
            setup=_dense_setup,
            attach_checks=_dense_checks,
        ),
        Workload(
            "zero-sweep",
            tail_pct=95.0,
            known_defects=frozenset({"unrealizable zero pattern"}),
            setup=_zero_setup,
            attach_checks=_zero_checks,
        ),
        Workload(
            "certify",
            tail_pct=85.0,
            known_defects=frozenset({"exit 3", GEN_FAILS, TOO_FAR}),
            setup=_verify_setup(CERTIFY_CONFIGS, CERTIFY_TINY, CERTIFY_INSTANCES, []),
            attach_checks=_verify_checks(spark=True),
        ),
        Workload(
            "orbit-verify",
            tail_pct=95.0,
            known_defects=frozenset({"exit 2", GEN_FAILS, TOO_FAR}),
            setup=_verify_setup(ORBIT_CONFIGS, ORBIT_TINY, ORBIT_INSTANCES, ["--no-spark"]),
            attach_checks=_verify_checks(spark=False),
        ),
    )
}
