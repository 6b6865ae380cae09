"""Compare the recovery outcomes of two dynphase source trees.

    python scripts/compare_recovery.py OLD_SRC NEW_SRC

Both trees run one instance grid (see ``two_trees``):

* complex mode: harmonic frames for d = 4..7, J = 0..min(2, d-2) and
  ``L = min_length(d, J)`` and one shorter (where Failed verdicts appear),
  one signal for every zero pattern of at most d-1 zeros, recovered by
  ``recover_full_spark`` over the tree's own frame;
* real mode: the same over the orbit of ``diag(linspace(0.6, 1.5, d))``
  from the all-ones generator, with real signals (``recover_full_spark``
  picks sign recovery from the set);
* generated instances: ``make_instance(kind, d, min_length(d), seed)`` for
  every kind in ``KINDS``, d = 1..8 and seeds 0..9, and the real-mode
  rotation instances of ``dynphase gen rotation 2 L --real`` for L = 2..13
  and seeds 0..9 (the sampler's real branch), as the texts of
  ``dump_json(instance_to_json(...))``, of their measurement set and of
  ``dynphase measure <instance file> --noise 1e-3``; each instance's own
  signal is recovered by ``recover_full_spark``, and its frame analyzed;
* the zero signal, recovered over every frame above (the harmonic, the
  real-mode and each generated instance's, with that instance's config).

The grid's orbits and signals are built in the script from fixed seeds, so
both trees see identical inputs (the script checks this). Status (or
exception type), ``used_indices`` and ``component_size`` must match
exactly, and the estimates must agree within phase-free distance 1e-10;
the zero signal's estimate and residual must match bit for bit. The
report also counts the estimates that match bit for bit: the distance
itself reads about 1e-16 between identical estimates, its own rounding.
Generated instances test each tree's own generator: their three texts must
match byte for byte, or fail with the same exception type. ``analyze`` must
give the same ``is_frame`` and frame bounds within relative 1e-9. Exit
status 0 means every outcome matched.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import sys
import tempfile

import numpy as np

import two_trees

TOL = 1e-10

#: Relative tolerance on the frame bounds of ``analyze``.
BOUND_RTOL = 1e-9

#: The texts recorded per generated instance, in order.
TEXTS = ("generated instances", "measurement sets", "noisy measure outputs")


def emit() -> list[dict]:
    """Run the grid with the dynphase on sys.path and return the outcomes."""
    from dynphase import analyze, build, cli, measure, min_length, retrieval
    from dynphase.instances import KINDS, make_instance
    from dynphase.serialization import dump_json, instance_to_json, measurement_set_to_json

    records = []

    def run(key, x, frame, config, **extra):
        entry = {"key": key, "x": None if x is None else [[v.real, v.imag] for v in x], **extra}
        if x is not None:
            try:
                result = retrieval.recover_full_spark(measure(x, frame, config), frame, config)
                entry.update(
                    status=result.status.value,
                    used=list(result.used_indices),
                    size=result.component_size,
                    estimate=[[v.real, v.imag] for v in result.estimate],
                )
                if not x.any():  # the zero signal: its estimate and residual, bit for bit
                    entry["bits"] = [result.estimate.tobytes().hex(), result.residual.hex()]
            except Exception as exc:  # an exception is an outcome to compare
                entry["status"] = type(exc).__name__
        records.append(entry)

    for real, d in itertools.product((False, True), range(4, 8)):
        for jumps, short in itertools.product(range(min(2, d - 2) + 1), (1, 0)):
            L = min_length(d, jumps) - short
            config = retrieval.MeasurementConfig(jumps=jumps, real_mode=real)
            if real:
                A, phi = np.diag(np.linspace(0.6, 1.5, d)), np.ones(d)
            else:  # the harmonic frame
                A, phi = np.diag(np.exp(2j * np.pi / L) ** np.arange(d)), np.ones(d, dtype=complex)
            V, frame = two_trees.orbit(A, phi, L), build(A, phi, L)
            diff = two_trees.orbit_diff(frame, V)
            rng = np.random.default_rng([d, L, jumps, int(real)])
            mode = "real" if real else "complex"
            for m in range(d):
                for zeros in itertools.combinations(range(L), m):
                    key = f"{mode} d={d} L={L} J={jumps} zeros={zeros}"
                    run(key, two_trees.signal(V, zeros, rng, real), frame, config, orbit_diff=diff)
            run(f"zero {mode} d={d} L={L} J={jumps}", np.zeros(d), frame, config)

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
        cases = [
            (kind, d, min_length(d), seed, False)
            for kind, d, seed in itertools.product(KINDS, range(1, 9), range(10))
        ]
        cases += [("rotation", 2, L, seed, True) for L in range(2, 14) for seed in range(10)]
        for kind, d, L, seed, real in cases:
            key = f"{kind} d={d} seed={seed}" + (f" L={L} real" if real else "")
            entry, instance = {"key": f"instance {key}", "instance": None}, None
            try:
                config = retrieval.MeasurementConfig(real_mode=real)
                instance = make_instance(kind, d, L, seed=seed, config=config)
                entry.update(instance=texts(instance, tmp), status="ok")
            except Exception as exc:  # an exception is an outcome to compare
                entry["status"] = type(exc).__name__
            records.append(entry)
            if instance is None:
                continue
            frame = instance.build_frame()
            run(f"recovery {key}", instance.signal, frame, instance.config)
            run(f"zero {key}", np.zeros(frame.dim), frame, instance.config)
            found = analyze(frame)
            bounds = [found.is_frame, found.lower_bound, found.upper_bound]
            records.append({"key": f"analysis {key}", "analysis": bounds})
    return records


def _phase_free_distance(x, y) -> float:
    """``min over theta of ||x - exp(1j theta) y||``, evaluated at the optimal theta.

    Forming the difference avoids the cancellation in ``|x|^2 + |y|^2 - 2|<x, y>|``,
    which bottoms out near sqrt(machine epsilon) times the norm.
    """
    cross = np.vdot(y, x)
    turn = cross / abs(cross) if cross != 0 else 1.0
    return float(np.linalg.norm(x - turn * y))


def compare(old: list[dict], new: list[dict]) -> int:
    if not two_trees.same_grid(old, new, "instance"):
        return 1
    mismatches, worst, worst_bound, tally = [], 0.0, 0.0, {}
    estimates = identical = 0
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
        if a.get("bits") != b.get("bits"):
            mismatches.append((a["key"], "estimate or residual bits differ"))
        if "estimate" in a and "estimate" in b:
            x, y = (np.array(r["estimate"], dtype=float).view(complex)[:, 0] for r in (a, b))
            estimates += 1
            identical += x.tobytes() == y.tobytes()
            dist = _phase_free_distance(x, y)
            worst = max(worst, dist)
            if dist > TOL:
                mismatches.append((a["key"], f"estimates differ by {dist:.3e}"))
    for label in sorted(tally):
        print(f"{label}: {tally[label]}")
    print(f"compared {len(old)} instances, max phase-free distance {worst:.3e}, "
          f"max relative bound change {worst_bound:.3e}")
    print(f"estimates bit-identical: {identical} of {estimates}")
    return two_trees.report(old, new, mismatches)


if __name__ == "__main__":
    sys.exit(two_trees.main(sys.argv[1:], __file__, emit, compare, __doc__))
