"""Input validation helpers.

All public operations work on dense complex data held in numpy arrays.
These helpers coerce inputs to ``complex128``, enforce shape and finiteness
invariants, and hand back defensive read-only copies where a value is stored
inside an immutable container.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a nonempty 1-d complex array with finite entries."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError(
            f"{name} must be a nonempty 1-d array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a nonempty 2-d complex array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatchError(
            f"{name} must be a nonempty 2-d array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_square(m, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    return arr


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """Read-only copy, used when storing arrays inside immutable dataclasses."""
    out = np.array(arr, dtype=arr.dtype, copy=True)
    out.setflags(write=False)
    return out
