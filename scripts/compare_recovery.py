"""Compare the recovery outcomes of two dynphase source trees.

    python scripts/compare_recovery.py OLD_SRC NEW_SRC

Each tree runs the same instance grid in its own child process, with the
tree's directory on PYTHONPATH:

* complex mode: harmonic frames for d = 4..7, J = 0..min(2, d-2) and
  ``L = min_length(d, J)`` and one shorter (where Failed verdicts appear),
  one signal for every zero pattern of at most d-1
  zeros, recovered by ``recover_full_spark``;
* real mode: the same grid over the real orbit of ``diag(linspace(0.6, 1.5,
  d))`` from the all-ones generator, with real signals recovered by
  ``recover_full_spark``, which picks sign recovery from the set;
* generated instances: ``make_instance(kind, d, min_length(d), seed)`` for
  every kind in ``KINDS``, d = 1..8 and seeds 0..9, serialized by
  ``dump_json(instance_to_json(...))``, together with the text of their
  measurement set, ``dump_json(measurement_set_to_json(measure(...)))``, and
  the stdout of ``dynphase measure <instance file> --noise 1e-3``; each
  instance's own signal is also recovered by ``recover_full_spark``, and its
  frame is passed to ``analyze``.

Signals come from a fixed seed, so both trees see identical inputs (the
script checks this). Status (or exception type), ``used_indices`` and
``component_size`` must match exactly, and the estimates must agree within
phase-free distance 1e-10. Generated instances, their measurement sets and
their noisy ``measure`` output must give the same text byte for byte, or fail
with the same exception type. ``analyze`` must give the same ``is_frame`` and
frame bounds within relative 1e-9. Exit status 0 means every outcome matched.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

TOL = 1e-10

#: Relative tolerance on the frame bounds of ``analyze``.
BOUND_RTOL = 1e-9

#: The texts recorded per generated instance, in order.
TEXTS = ("generated instances", "measurement sets", "noisy measure outputs")


def _real_signal(frame, pattern, rng, margin=1e-3, tries=64):
    """A real unit signal whose real frame coefficients vanish on the pattern."""
    rows = frame.synthesis().real
    if pattern:
        _, _, vh = np.linalg.svd(rows[:, list(pattern)].T)
        basis = vh[len(pattern):].T
    else:
        basis = np.eye(frame.dim)
    others = np.delete(np.arange(frame.length), list(pattern))
    for _ in range(tries):
        x = basis @ rng.standard_normal(basis.shape[1])
        x /= np.linalg.norm(x)
        coeffs = np.abs(rows[:, others].T @ x)
        if coeffs.size == 0 or coeffs.min() > margin * coeffs.max():
            return x
    return None


def emit(path: str) -> None:
    """Run the grid with the dynphase on sys.path and write the outcomes as JSON."""
    from dynphase import analyze, build, cli, harmonic_frame, measure, min_length, retrieval
    from dynphase.experiments import signal_with_zero_pattern, zero_patterns
    from dynphase.instances import KINDS, make_instance
    from dynphase.serialization import dump_json, instance_to_json, measurement_set_to_json

    records = []

    def run(key, x, frame, config):
        entry = {"key": key, "x": None if x is None else [[v.real, v.imag] for v in x]}
        if x is not None:
            try:
                result = retrieval.recover_full_spark(measure(x, frame, config), frame, config)
                entry.update(
                    status=result.status.value,
                    used=list(result.used_indices),
                    size=result.component_size,
                    estimate=[[v.real, v.imag] for v in result.estimate],
                )
            except Exception as exc:  # an exception is an outcome to compare
                entry["status"] = type(exc).__name__
        records.append(entry)

    cases = [
        (real, d, jumps, min_length(d, jumps) - short)
        for real in (False, True)
        for d in range(4, 8)
        for jumps in range(min(2, d - 2) + 1)
        for short in (1, 0)
    ]
    for real, d, jumps, L in cases:
        config = retrieval.MeasurementConfig(jumps=jumps, real_mode=real)
        if real:
            frame = build(np.diag(np.linspace(0.6, 1.5, d)), np.ones(d), L)
        else:
            frame = harmonic_frame(d, L)
        rng = np.random.default_rng([d, L, jumps, int(real)])
        for pattern in zero_patterns(L, d - 1):
            key = f"{'real' if real else 'complex'} d={d} L={L} J={jumps} zeros={pattern}"
            if real:
                x = _real_signal(frame, pattern, rng)
            else:
                x = signal_with_zero_pattern(frame, pattern, rng)
            run(key, x, frame, config)

    def texts(instance, tmp):
        """The instance, its measurement set and its noisy ``measure`` stdout as text."""
        text = dump_json(instance_to_json(instance))
        ms = measure(instance.signal, instance.build_frame(), instance.config)
        file = os.path.join(tmp, "instance.json")
        with open(file, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["measure", file, "--noise", "1e-3"])
        return [text, dump_json(measurement_set_to_json(ms)), f"exit {code}\n{out.getvalue()}"]

    with tempfile.TemporaryDirectory() as tmp:
        for kind in KINDS:
            for d in range(1, 9):
                for seed in range(10):
                    key = f"{kind} d={d} seed={seed}"
                    entry, instance = {"key": f"instance {key}", "instance": None}, None
                    try:
                        instance = make_instance(kind, d, min_length(d), seed=seed)
                        entry.update(instance=texts(instance, tmp), status="ok")
                    except Exception as exc:  # an exception is an outcome to compare
                        entry["status"] = type(exc).__name__
                    records.append(entry)
                    if instance is None:
                        continue
                    frame = instance.build_frame()
                    run(f"recovery {key}", instance.signal, frame, instance.config)
                    found = analyze(frame)
                    bounds = [found.is_frame, found.lower_bound, found.upper_bound]
                    records.append({"key": f"analysis {key}", "analysis": bounds})
    with open(path, "w") as fh:
        json.dump(records, fh)


def _vector(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _phase_free_distance(x, y) -> float:
    """``min over theta of ||x - exp(1j theta) y||``, evaluated at the optimal theta.

    Forming the difference avoids the cancellation in ``|x|^2 + |y|^2 - 2|<x, y>|``,
    which bottoms out near sqrt(machine epsilon) times the norm.
    """
    cross = np.vdot(y, x)
    turn = cross / abs(cross) if cross != 0 else 1.0
    return float(np.linalg.norm(x - turn * y))


def compare(old: list[dict], new: list[dict]) -> int:
    if [r["key"] for r in old] != [r["key"] for r in new]:
        print("instance grids differ")
        return 1
    mismatches, worst, worst_bound, tally = [], 0.0, 0.0, {}
    for a, b in zip(old, new):
        if "analysis" in a:
            (frame_a, *bounds_a), (frame_b, *bounds_b) = a["analysis"], b["analysis"]
            label = f"analysis is_frame={frame_a}"
            tally[label] = tally.get(label, 0) + 1
            if frame_a != frame_b:
                mismatches.append((a["key"], f"is_frame: {frame_a} vs {frame_b}"))
            for x, y in zip(bounds_a, bounds_b):
                rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
                worst_bound = max(worst_bound, rel)
                if rel > BOUND_RTOL:
                    mismatches.append((a["key"], f"bounds differ by {rel:.3e} relative"))
            continue
        if "instance" in a:
            label = f"instance {a['status']}"
            tally[label] = tally.get(label, 0) + 1
            if a["status"] != b["status"]:
                mismatches.append((a["key"], f"status: {a['status']} vs {b['status']}"))
            for what, x, y in zip(TEXTS, a["instance"] or [], b["instance"] or []):
                if x != y:
                    mismatches.append((a["key"], f"{what} differ"))
            continue
        if a["x"] != b["x"]:
            mismatches.append((a["key"], "input signals differ"))
            continue
        if a["x"] is None:
            tally["unrealizable"] = tally.get("unrealizable", 0) + 1
            continue
        label = f"{a['key'].split()[0]} {a.get('status')}"
        tally[label] = tally.get(label, 0) + 1
        for field in ("status", "used", "size"):
            if a.get(field) != b.get(field):
                mismatches.append((a["key"], f"{field}: {a.get(field)} vs {b.get(field)}"))
        if "estimate" in a and "estimate" in b:
            dist = _phase_free_distance(_vector(a["estimate"]), _vector(b["estimate"]))
            worst = max(worst, dist)
            if dist > TOL:
                mismatches.append((a["key"], f"estimates differ by {dist:.3e}"))
    for label in sorted(tally):
        print(f"{label}: {tally[label]}")
    print(f"compared {len(old)} instances, max phase-free distance {worst:.3e}, "
          f"max relative bound change {worst_bound:.3e}")
    for key, what in mismatches[:20]:
        print(f"MISMATCH {key}: {what}")
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__)
        return 2
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(argv):
            out = os.path.join(tmp, f"{i}.json")
            env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
            subprocess.run([sys.executable, __file__, "--emit", out], env=env, check=True)
            with open(out) as fh:
                outcomes.append(json.load(fh))
    return compare(*outcomes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
