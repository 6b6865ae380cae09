"""Compare the recovery outcomes of two dynphase source trees.

    python scripts/compare_recovery.py OLD_SRC NEW_SRC

Each tree runs the same instance grid in its own child process, with the
tree's directory on PYTHONPATH:

* complex mode: harmonic frames for d = 4..7, J = 0..min(2, d-2) and
  ``L = min_length(d, J)`` and one shorter (where Failed verdicts appear),
  one signal for every zero pattern of at most d-1
  zeros, recovered by ``recover_full_spark`` (and by ``recover_generic``
  for the pattern without zeros);
* real mode: the same grid over the real orbit of ``diag(linspace(0.6, 1.5,
  d))`` from the all-ones generator, with real signals recovered by
  ``recover_real``.

Signals come from a fixed seed, so both trees see identical inputs (the
script checks this). Status (or exception type), ``used_indices`` and
``component_size`` must match exactly, and the estimates must agree within
phase-free distance 1e-10. Exit status 0 means every outcome matched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

TOL = 1e-10


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
    from dynphase import build, harmonic_frame, measure, min_length, retrieval
    from dynphase.experiments import signal_with_zero_pattern, zero_patterns

    records = []

    def run(key, x, recover, frame, config):
        entry = {"key": key, "x": None if x is None else [[v.real, v.imag] for v in x]}
        if x is not None:
            try:
                result = recover(measure(x, frame, config), frame, config)
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
                run(key, _real_signal(frame, pattern, rng), retrieval.recover_real, frame, config)
                continue
            x = signal_with_zero_pattern(frame, pattern, rng)
            run(key, x, retrieval.recover_full_spark, frame, config)
            if not pattern:
                run(key + " generic", x, retrieval.recover_generic, frame, config)
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
    mismatches, worst, tally = [], 0.0, {}
    for a, b in zip(old, new):
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
    print(f"compared {len(old)} instances, max phase-free distance {worst:.3e}")
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
