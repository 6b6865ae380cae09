"""The two-tree runner shared by ``compare_spark.py`` and ``compare_recovery.py``.

``SCRIPT OLD_SRC NEW_SRC`` runs ``SCRIPT --emit OUT`` in one child process
per tree, with that tree's directory on PYTHONPATH, and hands both record
lists to the script's ``compare``, which returns the exit status. Inputs
are built here with numpy alone, never by a tree under test, so both trees
solve the same problem whatever their own builders do.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def orbit(A, phi, L: int) -> np.ndarray:
    """d x L matrix of ``A^l phi``, by ``DynamicalFrame``'s repeated squaring and to its bits.

    Row ``l + s`` of the L x d array is row ``l`` times ``(A^s)^T``, written
    in blocks of ``s`` rows; the power is squared, and ``s`` doubled, when
    ``n = 2s`` rows are done and more than ``s`` are left, unless the square
    over- or underflows.
    """
    rows = np.empty((L, len(phi)), dtype=complex)
    rows[0] = np.asarray(phi, dtype=complex)
    step, s, n = np.asarray(A, dtype=complex).T, 1, 1
    while n < L:
        if n == 2 * s and n + s < L:
            with contextlib.suppress(FloatingPointError), np.errstate(all="raise"):
                step, s = step @ step, 2 * s
        m = min(s, L - n)
        np.matmul(rows[n - s : n - s + m], step, out=rows[n : n + m])
        n += m
    return np.ascontiguousarray(rows.T)


def orbit_diff(frame, V: np.ndarray) -> float:
    """Largest relative column difference of a tree's own orbit of ``(A, phi, L)`` from ``V``."""
    gap = np.linalg.norm(frame.synthesis() - V, axis=0)
    return float(np.max(gap / np.maximum(np.linalg.norm(V, axis=0), np.finfo(float).tiny)))


def signal(V: np.ndarray, zeros, rng: np.random.Generator, real: bool = False):
    """A unit signal whose coefficients ``V^H x`` vanish on ``zeros``, or None.

    Draws come from the orthogonal complement of those columns (real draws
    against ``V.real`` when ``real``), and the first whose other coefficients
    all exceed 1e-3 of the largest is returned; None after 64 draws marks the
    pattern unrealizable. This is ``signal_with_zero_pattern`` bit for bit.
    """
    V, zeros = (V.real if real else V), list(zeros)
    basis = np.eye(V.shape[0], dtype=V.dtype)
    if zeros:
        basis = np.linalg.svd(V[:, zeros].conj().T)[2][len(zeros):].conj().T
    others = np.delete(np.arange(V.shape[1]), zeros)
    for _ in range(64):
        weights = rng.standard_normal(basis.shape[1])
        if not real:
            weights = weights + 1j * rng.standard_normal(basis.shape[1])
        x = basis @ weights
        x = x / np.linalg.norm(x)
        mags = np.abs((V.conj().T @ x)[others])
        if mags.min() > 1e-3 * mags.max():
            return x
    return None


def same_grid(old: list[dict], new: list[dict], grid: str) -> bool:
    """Whether both trees emitted the same keys in the same order; says so when not."""
    if [r["key"] for r in old] == [r["key"] for r in new]:
        return True
    print(f"{grid} grids differ")
    return False


def report(old: list[dict], new: list[dict], mismatches: list[tuple[str, str]]) -> int:
    """Print each tree's largest orbit_diff and the mismatches; the exit status."""
    for tree, records in (("OLD", old), ("NEW", new)):
        diff = max((r["orbit_diff"] for r in records if "orbit_diff" in r), default=0.0)
        print(f"{tree} orbit: largest relative column difference from the script's {diff:.3e}")
    for key, what in mismatches[:20]:
        print(f"MISMATCH {key}: {what}")
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


def main(argv: list[str], script: str, emit, compare, usage: str) -> int:
    """``--emit OUT``: write ``emit()`` to OUT; ``OLD_SRC NEW_SRC``: compare the two trees."""
    if len(argv) == 2 and argv[0] == "--emit":
        with open(argv[1], "w") as fh:
            json.dump(emit(), fh)
        return 0
    if len(argv) != 2:
        print(usage)
        return 2
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(argv):
            out = os.path.join(tmp, f"{i}.json")
            env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
            subprocess.run([sys.executable, script, "--emit", out], env=env, check=True)
            with open(out) as fh:
                outcomes.append(json.load(fh))
    return compare(*outcomes)
