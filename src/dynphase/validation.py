"""Input validation helpers.

All public operations work on dense complex data held in numpy arrays.
These helpers coerce inputs to ``complex128``, enforce shape and finiteness
invariants, and hand back defensive read-only copies where a value is stored
inside an immutable container.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError


def _as_array(x, ndim: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatchError(
            f"{name} must be a nonempty {ndim}-d array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a nonempty 1-d complex array with finite entries."""
    return _as_array(x, 1, name)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a nonempty 2-d complex array with finite entries."""
    return _as_array(m, 2, name)


def as_square(m, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_multiplicities(multiplicities, count: int) -> tuple[int, ...]:
    """Coerce to a tuple of ``count`` positive Jordan block sizes."""
    mults = tuple(int(m) for m in multiplicities)
    if len(mults) != count:
        raise DimensionMismatchError(f"{count} eigenvalues but {len(mults)} multiplicities")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive integers")
    return mults


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """Read-only copy, used when storing arrays inside immutable dataclasses."""
    out = np.array(arr, dtype=arr.dtype, copy=True)
    out.setflags(write=False)
    return out
