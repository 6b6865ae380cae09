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


def _dense_draw(
    frame: DynamicalFrame, basis: np.ndarray, tries: int, real: bool, indices, rng
) -> np.ndarray | None:
    """The first dense unit signal ``basis @ w`` of ``tries`` draws, or None.

    ``w`` is standard normal, complex unless ``real``. A draw is dense when
    every frame coefficient at ``indices`` exceeds 1e-3 of the largest of
    them; a zero draw is skipped. This loop is the one sampling rule behind
    :func:`signal_with_zero_pattern` and ``instances.random_signal_for``.
    """
    n = basis.shape[1]
    for _ in range(tries):
        weights = rng.standard_normal(n)
        if not real:
            weights = weights + 1j * rng.standard_normal(n)
        x = basis @ weights
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        x = x / norm
        mags = np.abs((frame._rows @ x)[indices])
        if mags.size > 0 and mags.min() > 1e-3 * mags.max():
            return x
    return None


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
    signals an unrealizable pattern; ``dim`` or more zeros leave an empty
    complement, whose draws are all zero and leave ``rng`` as it was.
    """
    d = frame.dim
    zero_set = {int(i) for i in zero_indices}
    zero_list = sorted(zero_set)
    if any(i < 0 or i >= frame.length for i in zero_list):
        raise ValueError(f"zero indices out of range 0..{frame.length - 1}: {zero_list}")
    if zero_list:
        _, _, vh = np.linalg.svd(frame._rows[zero_list])
        null_basis = vh[len(zero_list):].conj().T
    else:
        null_basis = np.eye(d, dtype=complex)
    others = [l for l in range(frame.length) if l not in zero_set]
    return _dense_draw(frame, null_basis, 64, False, others, rng)
