"""Reference answers the benchmark computes on its own, outside timed sections.

Nothing here calls into ``dynphase``: the orbit, the spark verdict, the frame
verdict, the phase-free distance and the zero-pattern verdict are computed
directly from the instance JSON and from first principles, so that a bug in
a library layer cannot also hide in its check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Largest admissible phase-free distance between estimate and truth
#: (the library's ``cli.RECOVERY_TOL``).
RECOVERY_TOL = 1e-7

#: A minor passes when ``|det| > SPARK_TOL * prod(column norms)``.
SPARK_TOL = 1e-10

#: Relative gap between extreme singular values below which a set of vectors
#: does not span.
FRAME_RTOL = 1e-10

#: Minors per stacked determinant call, to bound memory.
DET_CHUNK = 4096


def phase_distance(estimate, truth) -> float:
    """``min over theta of || estimate - exp(1j theta) truth ||``.

    Evaluated as the norm of the aligned difference, which keeps full
    precision for tiny errors (the expanded quadratic form cancels).
    """
    estimate = np.asarray(estimate, dtype=complex)
    truth = np.asarray(truth, dtype=complex)
    inner = complex(np.vdot(truth, estimate))
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(estimate - phase * truth))


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def operator_and_generator(frame_spec: dict) -> tuple[np.ndarray, np.ndarray, int]:
    """Operator, generator and orbit length of an instance's ``frame`` object."""
    if "harmonic" in frame_spec:
        d, L = frame_spec["harmonic"]["d"], frame_spec["harmonic"]["L"]
        w = np.exp(2j * np.pi / L)
        return np.diag(w ** np.arange(d)), np.ones(d, dtype=complex), L
    phi = _vector(frame_spec["phi"])
    L = frame_spec["L"]
    if "A" in frame_spec:
        return _matrix(frame_spec["A"]), phi, L
    if "circulant" in frame_spec:
        a = _vector(frame_spec["circulant"])
        d = a.size
        return a[(np.arange(d)[:, None] - np.arange(d)[None, :]) % d], phi, L
    if "jordan" in frame_spec:
        spec = frame_spec["jordan"]
        values = _vector(spec["eigenvalues"])
        basis = _matrix(spec["basis"])
        J = np.zeros_like(basis)
        start = 0
        for lam, m in zip(values, spec["multiplicities"]):
            for k in range(m):
                J[start + k, start + k] = lam
                if k + 1 < m:
                    J[start + k, start + k + 1] = 1.0
            start += m
        return basis @ J @ np.linalg.inv(basis), phi, L
    raise ValueError(f"unknown frame variant {sorted(frame_spec)}")


def orbit(frame_spec: dict) -> np.ndarray:
    """The d x L synthesis matrix with columns ``A^l phi``."""
    A, phi, L = operator_and_generator(frame_spec)
    columns = [phi]
    for _ in range(L - 1):
        columns.append(A @ columns[-1])
    return np.column_stack(columns)


def is_frame(synthesis: np.ndarray) -> bool:
    """True when the columns span, by the singular-value gap."""
    sv = np.linalg.svd(synthesis, compute_uv=False)
    d, L = synthesis.shape
    return L >= d and float(sv[-1]) > FRAME_RTOL * float(sv[0])


def full_spark(synthesis: np.ndarray) -> bool:
    """True when every d-column minor passes the scaled determinant test.

    Minors are evaluated through stacked ``np.linalg.det`` calls in chunks.
    """
    d, L = synthesis.shape
    norms = np.linalg.norm(synthesis, axis=0)
    subsets = itertools.combinations(range(L), d)
    while True:
        chunk = np.array(list(itertools.islice(subsets, DET_CHUNK)), dtype=np.intp)
        if chunk.size == 0:
            return True
        minors = np.moveaxis(synthesis[:, chunk], 1, 0)  # (n, d, d)
        scaled = np.abs(np.linalg.det(minors)) / np.prod(norms[chunk], axis=1)
        if np.any(scaled <= SPARK_TOL):
            return False


def pattern_recoverable(dim: int, length: int, zeros, jumps: int) -> bool:
    """Chain-size oracle for a zero pattern over a full-spark frame.

    Chain edges join nonzero positions l and l+j for j = 1..jumps+1. The
    pattern is recoverable exactly when the largest chain component plus
    the number of zeros reaches the dimension.
    """
    zero_set = set(zeros)
    largest = run = 0
    gap = math.inf  # zeros since the last nonzero position
    for l in range(length):
        if l in zero_set:
            gap += 1
            continue
        run = run + 1 if gap <= jumps else 1
        largest = max(largest, run)
        gap = 0
    return largest + len(zero_set) >= dim
