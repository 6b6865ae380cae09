"""Compare the full-spark certificates of two dynphase source trees.

    python scripts/compare_spark.py OLD_SRC NEW_SRC

Both trees run one matrix grid (see ``two_trees``): for d = 3..8 and L in
{d + 2, 2d}, and for d = 9 and 10 at L = d + 2 (anchored minors with a
5-column prefix),

* orbits of harmonic, random-diagonalizable, Jordan (non-diagonalizable)
  and circulant operators, of singular diagonal and singular dense
  operators (one zero eigenvalue) and of the nilpotent Jordan block, two
  seeds each, checked with ``full_spark``, with ``analyze(spark=True)`` on
  the tree's own frame (a circulant's from ``circulant_frame``, whose
  spanning verdict is compared too), and, for the diagonalizable ones,
  with ``full_spark_criterion`` and ``frame_criterion`` (unit blocks) on
  the eigenvalues and the generator's eigenbasis coordinates;
* classical Vandermonde matrices (orbits of ``diag(points)`` from the
  all-ones generator) in random complex, positive real and geometric
  points and in the roots of unity of order d - 1 (which repeat, so some
  minors vanish), checked with ``full_spark``, ``full_spark_criterion``
  and ``frame_criterion`` (all-ones coordinates);
* one diagonal orbit whose smallest generator coordinate is 5e-10 of the
  largest, just above the 1e-10 dependence cut, checked like the
  diagonalizable orbits.

Every operator, orbit and spectrum is built in the script from fixed seeds,
so both trees see identical inputs (the script checks their bytes). The
verdict and the witness must match exactly; an exception is an outcome and
must match by type. ``min_abs_det`` may move by rounding (a change of
kernel or of shift scaling moves its last bits), in every check by at most
1e-15 absolute (scaled minors are at most 1, by Hadamard's bound); the
moved records are counted per check. One further difference is allowed and
listed: an ``analyze`` record of an exactly diagonal operator that passes
in both trees with a number in OLD and ``min_abs_det`` None in NEW, a
structural certificate standing in for enumeration. Within each tree, every
check of a matrix runs twice in one process: first cold, with no enumeration
plan kept (the tree's ``vandermonde._plans`` cleared, where it has one), then,
after the matrix's other cold checks, warm, with the plans of every earlier
check of this and earlier matrices kept. The two outcomes must be identical,
field for field, so a stale plan shows as a mismatch. Exit status 0 means
every other outcome matched.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

import two_trees


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _points(rng, d):
    return rng.uniform(0.7, 1.25, d) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))


def _eigen(A, phi):
    """The operator's eigenvalues and the generator's eigenbasis coordinates."""
    values, vectors = np.linalg.eig(A)
    return values, np.linalg.solve(vectors, phi)


def emit() -> list[dict]:
    """Run the grid with the dynphase on sys.path and return the outcomes."""
    from dynphase import analyze, build, circulant_frame, frame_criterion, full_spark
    from dynphase import full_spark_criterion, vandermonde

    records = []
    plans = getattr(vandermonde, "_plans", None)  # the tree's kept enumeration plans

    def outcome(check, *args):
        try:
            c = check(*args)
        except Exception as exc:  # an exception is an outcome to compare
            return type(exc).__name__
        if isinstance(c, (bool, np.bool_)):  # a spanning verdict
            return [bool(c)]
        mad = None if c.min_abs_det is None else repr(float(c.min_abs_det))
        return [c.full_spark, None if c.witness is None else list(c.witness), mad]

    def run(key, A, phi, L, spectrum=None, frame=None, circulant=None):
        """Check the script's orbit of ``A`` from ``phi``, and ``frame``, the tree's own.

        Each check runs cold, with no plan kept, and after all of them once
        more, warm, with the plans of every earlier check; ``warm`` lists
        the checks whose second outcome differs.
        """
        m = two_trees.orbit(A, phi, L)
        checks = {"full_spark": (full_spark, m)}
        if spectrum is not None:
            checks["criterion"] = (full_spark_criterion, *spectrum, L)
            checks["spanning"] = (frame_criterion, *spectrum)
        if frame is not None:
            checks["analyze"] = (lambda: analyze(frame, spark=True).spark,)
        entry = {"key": key, "input": hashlib.sha256(m.tobytes()).hexdigest()}
        for name, (check, *args) in checks.items():
            if plans is not None:
                plans.clear()
            entry[name] = outcome(check, *args)
        warm = {name: outcome(check, *args) for name, (check, *args) in checks.items()}
        entry["warm"] = [name for name in checks if warm[name] != entry[name]]
        if circulant is not None:
            entry["circulant"] = [bool(circulant)]
        if frame is not None:
            entry["diagonal"] = not np.any(A - np.diag(np.diagonal(A)))
            entry["orbit_diff"] = two_trees.orbit_diff(frame, m)
        records.append(entry)

    def orbit(key, A, phi, L, spectrum=None):
        run(key, A, phi, L, spectrum, build(A, phi, L))

    for d in range(3, 11):
        for L in (d + 2, 2 * d) if d <= 8 else (d + 2,):
            A, ones = np.diag(np.exp(2j * np.pi / L) ** np.arange(d)), np.ones(d, dtype=complex)
            orbit(f"harmonic d={d} L={L}", A, ones, L, _eigen(A, ones))
            for seed in range(2):
                rng = np.random.default_rng([d, L, seed])
                tag = f"d={d} L={L} seed={seed}"
                U, values, coords = _unitary(rng, d), _points(rng, d), _points(rng, d)
                A = (U * values) @ U.conj().T
                orbit(f"random-diag {tag}", A, U @ coords, L, (values, coords))
                # S J S^{-1}, solved as spectral.assemble solves it
                mults = (d - 2, 1, 1) if d > 3 else (2, 1)
                eigs, S, links = _points(rng, len(mults)), _unitary(rng, d), np.ones(d - 1)
                links[np.cumsum(mults)[:-1] - 1] = 0.0
                J = np.diag(np.repeat(eigs, mults)) + np.diag(links, 1)
                orbit(f"jordan {tag}", np.linalg.solve(S.T, (S @ J).T).T, S @ coords, L)
                kernel = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                A = kernel[(np.arange(d)[:, None] - np.arange(d)) % d]  # the circulant gather
                frame, spans = circulant_frame(kernel, coords, L)
                run(f"circulant {tag}", A, coords, L, _eigen(A, coords), frame, spans)
                # det(A) = 0: every minor without column 0 is scaled to zero
                singular = np.concatenate(([0.0], _points(rng, d - 1)))
                orbit(f"singular-diag {tag}", np.diag(singular), coords, L, (singular, coords))
                A = (U * singular) @ U.conj().T
                orbit(f"singular-dense {tag}", A, U @ coords, L, (singular, coords))
                orbit(f"nilpotent {tag}", np.diag(np.ones(d - 1), 1), coords, L)
                for name, pts in (
                    ("random", _points(rng, d)),
                    ("positive", np.sort(rng.uniform(0.2, 2.0, d))),
                    ("geometric", 0.8 * (0.95 * np.exp(0.9j + 0.1j * seed)) ** np.arange(d)),
                    ("roots", np.exp(2j * np.pi * (np.arange(d) + seed) / (d - 1))),
                ):
                    run(f"classical-{name} {tag}", np.diag(pts), np.ones(d), L, (pts, np.ones(d)))
    # one orbit whose smallest coordinate ratio, 5e-10, sits just above the cut
    values, coords = np.exp(2j * np.pi / 8) ** np.arange(4), np.array([1.0, 1.0, 1.0, 5e-10])
    orbit("band d=4 L=8", np.diag(values), coords, 8, (values, coords))
    return records


#: How far ``min_abs_det`` may move when verdict and witness are unchanged.
DET_ATOL = 1e-15


def _drift(old, new) -> float | None:
    """|min_abs_det| move of a certificate with unchanged verdict and witness."""
    same = isinstance(old, list) and isinstance(new, list) and old[:2] == new[:2]
    return abs(float(old[2]) - float(new[2])) if same and None not in (old[2], new[2]) else None


def compare(old: list[dict], new: list[dict]) -> int:
    if not two_trees.same_grid(old, new, "matrix"):
        return 1
    mismatches, structural, tally = [], [], {}
    drifts = {check: [] for check in ("full_spark", "criterion", "analyze")}
    for a, b in zip(old, new):
        if a["input"] != b["input"]:
            mismatches.append((a["key"], "input matrices differ"))
            continue
        for tree, record in (("OLD", a), ("NEW", b)):
            if record.get("warm"):
                mismatches.append((a["key"], f"{tree} warm run differs in {record['warm']}"))
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
            elif check == "analyze" and a["diagonal"] and b[check] == [True, None, None] and (
                outcome[:1] == [True] and outcome[2] is not None
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
    return two_trees.report(old, new, mismatches)


if __name__ == "__main__":
    sys.exit(two_trees.main(sys.argv[1:], __file__, emit, compare, __doc__))
