"""Zero-pattern harnesses.

Recovery over a full-spark frame survives zero coefficients as long as some
chain component plus the zero-pinned indices reaches the space dimension.
These helpers enumerate zero patterns, evaluate that combinatorial condition
without any linear algebra, and construct signals realizing a prescribed
zero pattern over a given frame.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .frames import DynamicalFrame
from .retrieval import chain_components


def effective_chain_size(nonzero: Sequence[bool], jumps: int) -> int:
    """Largest chain component plus the number of zero positions.

    This is the number of linear constraints recovery can assemble for the
    pattern; over a full-spark frame the pattern is recoverable exactly when
    the value reaches the space dimension.
    """
    zeros = sum(1 for flag in nonzero if not flag)
    components = chain_components(nonzero, jumps)
    largest = max((len(c) for c in components), default=0)
    return largest + zeros


def zero_patterns(length: int, max_zeros: int) -> Iterator[tuple[int, ...]]:
    """All zero-index subsets of size 0..max_zeros, in order of size."""
    for m in range(max_zeros + 1):
        yield from itertools.combinations(range(length), m)


def pattern_flags(length: int, zero_indices: Iterable[int]) -> list[bool]:
    flags = [True] * length
    for idx in zero_indices:
        flags[idx] = False
    return flags


def worst_case_pattern(dim: int, length: int, zeros: int, jumps: int = 0) -> tuple[int, ...]:
    """A zero placement that keeps every chain component as short as possible.

    Repeats (dim - zeros - jumps - 1) nonzeros followed by jumps + 1 zeros
    until the zero budget runs out, then fills with nonzeros.
    """
    if zeros >= dim:
        raise ValueError("zeros must stay below dim")
    run = max(dim - zeros - jumps - 1, 0)
    flags: list[bool] = []
    remaining = zeros
    while remaining > 0 and len(flags) < length:
        flags.extend([True] * min(run, length - len(flags)))
        block = min(jumps + 1, remaining, length - len(flags))
        flags.extend([False] * block)
        remaining -= block
    flags.extend([True] * (length - len(flags)))
    return tuple(i for i, f in enumerate(flags[:length]) if not f)


def signal_with_zero_pattern(
    frame: DynamicalFrame,
    zero_indices: Sequence[int],
    rng: np.random.Generator,
    margin: float = 1e-3,
    tries: int = 64,
) -> np.ndarray | None:
    """A unit signal whose frame coefficients vanish exactly on the pattern.

    Samples from the orthogonal complement of the selected frame vectors and
    rejects draws whose remaining coefficients come within ``margin`` (times
    the largest one) of zero. Returns None when rejection keeps failing,
    which signals an unrealizable pattern.
    """
    d = frame.dim
    zero_list = sorted(set(int(i) for i in zero_indices))
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
    others = [l for l in range(frame.length) if l not in set(zero_list)]
    for _ in range(tries):
        weights = rng.standard_normal(null_basis.shape[1]) + 1j * rng.standard_normal(
            null_basis.shape[1]
        )
        x = null_basis @ weights
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        x = x / norm
        coeffs = np.abs(frame.coefficients(x)[others])
        if coeffs.size and np.min(coeffs) > margin * np.max(coeffs):
            return x
    return None
