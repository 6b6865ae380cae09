"""Zero-pattern harnesses.

Recovery over a full-spark frame survives zero coefficients as long as some
chain component plus the zero-pinned indices reaches the space dimension.
These helpers enumerate zero patterns and construct signals realizing a
prescribed zero pattern over a given frame.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .frames import DynamicalFrame


def _dense_coefficients(frame: DynamicalFrame, x: np.ndarray, indices=slice(None)) -> bool:
    """Whether every frame coefficient of x at ``indices`` exceeds 1e-3 of the largest of them."""
    mags = np.abs(frame.coefficients(x)[indices])
    return mags.size > 0 and bool(mags.min() > 1e-3 * mags.max())


def zero_patterns(length: int, max_zeros: int) -> Iterator[tuple[int, ...]]:
    """All zero-index subsets of size 0..max_zeros, in order of size."""
    for m in range(max_zeros + 1):
        yield from itertools.combinations(range(length), m)


def signal_with_zero_pattern(
    frame: DynamicalFrame, zero_indices: Sequence[int], rng: np.random.Generator
) -> np.ndarray | None:
    """A unit signal whose frame coefficients vanish exactly on the pattern.

    Samples from the orthogonal complement of the selected frame vectors and
    rejects draws whose remaining coefficients come within 1e-3 (times the
    largest one) of zero. Returns None when 64 draws are all rejected, which
    signals an unrealizable pattern.
    """
    d = frame.dim
    zero_set = {int(i) for i in zero_indices}
    zero_list = sorted(zero_set)
    if any(i < 0 or i >= frame.length for i in zero_list):
        raise ValueError(f"zero indices out of range 0..{frame.length - 1}: {zero_list}")
    if len(zero_list) >= d:
        return None
    synthesis = frame.synthesis()
    if zero_list:
        rows = synthesis[:, zero_list].conj().T
        _, _, vh = np.linalg.svd(rows)
        null_basis = vh[len(zero_list):].conj().T
    else:
        null_basis = np.eye(d, dtype=complex)
    others = [l for l in range(frame.length) if l not in zero_set]
    for _ in range(64):
        weights = rng.standard_normal(null_basis.shape[1]) + 1j * rng.standard_normal(
            null_basis.shape[1]
        )
        x = null_basis @ weights
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        x = x / norm
        if _dense_coefficients(frame, x, others):
            return x
    return None
