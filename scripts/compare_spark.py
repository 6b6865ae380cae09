"""Compare the full-spark certificates of two dynphase source trees.

    python scripts/compare_spark.py OLD_SRC NEW_SRC

Each tree runs the same matrix grid in its own child process, with the
tree's directory on PYTHONPATH. For d = 3..8 and L in {d + 2, 2d}, and for
d = 9 and 10 at L = d + 2 (anchored minors with a 5-column prefix):

* orbit synthesis matrices of harmonic, random-diagonalizable, Jordan
  (non-diagonalizable) and circulant operators, of singular diagonal and
  singular dense operators (one zero eigenvalue) and of the nilpotent
  Jordan block, two seeds each, checked with
  ``full_spark`` and, for the diagonalizable ones, with
  ``full_spark_criterion`` and the spanning test ``frame_criterion`` (unit
  blocks) on the operator's eigenvalues and the generator's eigenbasis
  coordinates, every orbit with
  ``analyze(spark=True)``, and every circulant orbit with the spanning
  verdict of ``circulant_frame``;
* classical Vandermonde matrices in random distinct complex points, in
  positive real points, in geometric points and in roots of unity of order
  d - 1 (which repeat, so some minors vanish), checked with ``full_spark``,
  ``full_spark_criterion`` and ``frame_criterion`` (all-ones coordinates);
* one diagonal orbit whose smallest generator coordinate is 5e-10 of the
  largest, just above the 1e-10 dependence cut, checked like the
  diagonalizable orbits.

A tree without ``frame_criterion`` runs ``frame_criterion_diagonalizable``,
the same test under its earlier name; no record passes a Jordan spectrum,
which such a tree cannot judge. Matrices come from fixed seeds, so both
trees see identical inputs (the script checks their bytes). The verdict and
the witness must match exactly; an exception is an outcome and must match
by type. ``min_abs_det`` may move by rounding, in every check: a change of
kernel, or of scaling minors by powers of the operator's determinant
instead of factoring them, moves its last bits. It may move by at most 1e-15 absolute (scaled minors are at most
1, by Hadamard's bound). The number of moved records and the largest move
are printed per check. One further difference is allowed and listed: an
``analyze`` record of an exactly diagonal operator that passes in both trees
with a number in OLD and with ``min_abs_det`` None in NEW, which is a
structural certificate standing in for enumeration. Exit status 0 means
every other outcome matched.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _points(rng, d):
    return rng.uniform(0.7, 1.25, d) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))


def emit(path: str) -> None:
    """Run the grid with the dynphase on sys.path and write the outcomes as JSON."""
    from dynphase import analyze, build, circulant_frame, classical, full_spark, harmonic_frame
    from dynphase import frames
    from dynphase.spectral import JordanSpec, assemble

    records = []

    def certify(check, *args):
        try:
            c = check(*args)
        except Exception as exc:  # an exception is an outcome to compare
            return type(exc).__name__
        mad = None if c.min_abs_det is None else repr(float(c.min_abs_det))
        return [c.full_spark, None if c.witness is None else list(c.witness), mad]

    criterion = getattr(frames, "frame_criterion", None) or frames.frame_criterion_diagonalizable

    def span(*spectrum):
        try:
            return [bool(criterion(*spectrum))]
        except Exception as exc:
            return type(exc).__name__

    def run(key, m, spectrum=None, frame=None, circulant=None):
        entry = {"key": key, "input": hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()}
        entry["full_spark"] = certify(full_spark, m)
        if spectrum is not None:
            entry["criterion"] = certify(frames.full_spark_criterion, *spectrum, m.shape[1])
            entry["spanning"] = span(*spectrum)
        if circulant is not None:
            entry["circulant"] = [bool(circulant)]
        if frame is not None:
            A = frame.operator
            entry["diagonal"] = not np.any(A - np.diag(np.diagonal(A)))
            entry["analyze"] = certify(lambda: analyze(frame, spark=True).spark)
        records.append(entry)

    def orbit_spectrum(frame):
        values, vectors = np.linalg.eig(frame.operator)
        return values, np.linalg.solve(vectors, frame.generator)

    for d in range(3, 11):
        for L in (d + 2, 2 * d) if d <= 8 else (d + 2,):
            frame = harmonic_frame(d, L)
            run(f"harmonic d={d} L={L}", frame.synthesis(), orbit_spectrum(frame), frame)
            for seed in range(2):
                rng = np.random.default_rng([d, L, seed])
                tag = f"d={d} L={L} seed={seed}"

                U, values, coords = _unitary(rng, d), _points(rng, d), _points(rng, d)
                frame = build((U * values) @ U.conj().T, U @ coords, L)
                run(f"random-diag {tag}", frame.synthesis(), (values, coords), frame)

                mults = (d - 2, 1, 1) if d > 3 else (2, 1)
                spec = JordanSpec(_points(rng, len(mults)), mults, _unitary(rng, d))
                frame = build(assemble(spec), spec.basis @ coords, L)
                run(f"jordan {tag}", frame.synthesis(), frame=frame)

                kernel = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                frame, spans = circulant_frame(kernel, coords, L)
                run(f"circulant {tag}", frame.synthesis(), orbit_spectrum(frame), frame, spans)

                # det(A) = 0: every minor without column 0 is scaled to zero
                singular = np.concatenate(([0.0], _points(rng, d - 1)))
                frame = build(np.diag(singular), coords, L)
                run(f"singular-diag {tag}", frame.synthesis(), (singular, coords), frame)
                frame = build((U * singular) @ U.conj().T, U @ coords, L)
                run(f"singular-dense {tag}", frame.synthesis(), (singular, coords), frame)
                frame = build(np.diag(np.ones(d - 1), 1), coords, L)
                run(f"nilpotent {tag}", frame.synthesis(), frame=frame)

                for name, pts in (
                    ("random", _points(rng, d)),
                    ("positive", np.sort(rng.uniform(0.2, 2.0, d))),
                    ("geometric", 0.8 * (0.95 * np.exp(0.9j + 0.1j * seed)) ** np.arange(d)),
                    ("roots", np.exp(2j * np.pi * (np.arange(d) + seed) / (d - 1))),
                ):
                    run(f"classical-{name} {tag}", classical(pts, L), (pts, np.ones(d)))
    # one orbit whose smallest coordinate ratio, 5e-10, sits just above the cut
    values, coords = np.exp(2j * np.pi / 8) ** np.arange(4), np.array([1.0, 1.0, 1.0, 5e-10])
    frame = build(np.diag(values), coords, 8)
    run("band d=4 L=8", frame.synthesis(), (values, coords), frame)
    with open(path, "w") as fh:
        json.dump(records, fh)


#: How far ``min_abs_det`` may move when verdict and witness are unchanged.
DET_ATOL = 1e-15


def _drift(old, new) -> float | None:
    """|min_abs_det| move of a certificate with unchanged verdict and witness."""
    if isinstance(old, str) or isinstance(new, str):
        return None
    if old[:2] != new[:2] or old[2] is None or new[2] is None:
        return None
    return abs(float(old[2]) - float(new[2]))


def compare(old: list[dict], new: list[dict]) -> int:
    if [r["key"] for r in old] != [r["key"] for r in new]:
        print("matrix grids differ")
        return 1
    mismatches, structural, tally = [], [], {}
    drifts = {check: [] for check in ("full_spark", "criterion", "analyze")}
    for a, b in zip(old, new):
        if a["input"] != b["input"]:
            mismatches.append((a["key"], "input matrices differ"))
            continue
        for check in ("full_spark", "criterion", "analyze", "spanning", "circulant"):
            if check not in a:
                continue
            outcome = a[check]
            verdict = outcome if isinstance(outcome, str) else ("pass" if outcome[0] else "fail")
            label = f"{check} {verdict}"
            tally[label] = tally.get(label, 0) + 1
            if a[check] == b.get(check):
                continue
            drift = _drift(outcome, b.get(check))
            if drift is not None and drift <= DET_ATOL:
                drifts[check].append(drift)
            elif (
                check == "analyze"
                and a["diagonal"]
                and not isinstance(outcome, str)
                and outcome[0] is True
                and outcome[2] is not None
                and b[check] == [True, None, None]
            ):
                structural.append((a["key"], outcome[2]))
            else:
                mismatches.append((a["key"], f"{check}: {a[check]} vs {b.get(check)}"))
    for label in sorted(tally):
        print(f"{label}: {tally[label]}")
    print(f"compared {sum(tally.values())} certificates on {len(old)} matrices")
    for check, moves in drifts.items():
        largest = max(moves, default=0.0)
        print(f"{check}: {len(moves)} certificates moved min_abs_det, by at most {largest:.3e}")
    for key, mad in structural:
        print(f"STRUCTURAL {key}: analyze min_abs_det {mad} -> None")
    print(f"{len(structural)} diagonal analyze records certified by structure")
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
