"""Dense complex linear algebra substrate.

Thin, contract-enforcing wrappers over LAPACK (through numpy). Every function
is pure and safe for concurrent use; inputs are validated and never mutated.

The inner product is conjugate-linear in the SECOND argument:
``inner_product(x, y) = sum_k x[k] * conj(y[k])``, so that
``inner_product(x, exp(1j*a) * v) == exp(-1j*a) * inner_product(x, v)``.
Every phase bookkeeping convention in this package derives from this choice.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError, SingularMatrixError
from .validation import as_matrix, as_square, as_vector


def matmul(a, b) -> np.ndarray:
    """Matrix product with explicit dimension checking."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ"
        )
    return a @ b


def inner_product(x, y) -> complex:
    """Complex inner product, conjugate-linear in the second argument."""
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatchError(f"vectors have dims {x.size} vs {y.size}")
    return complex(np.sum(x * np.conj(y)))


def determinant(m) -> complex:
    """Determinant of a square matrix via pivoted LU."""
    m = as_square(m, "m")
    return complex(np.linalg.det(m))


def singular_values(m) -> np.ndarray:
    """Singular values in descending order (nonnegative reals)."""
    m = as_matrix(m, "m")
    return np.linalg.svd(m, compute_uv=False)


def solve_least_squares(m, b) -> np.ndarray:
    """Least-squares solution of ``m @ x = b`` for a full-column-rank tall matrix."""
    m = as_matrix(m, "m")
    b = as_vector(b, "b")
    rows, cols = m.shape
    if rows < cols:
        raise DimensionMismatchError(f"need rows >= cols, got shape {m.shape}")
    if b.size != rows:
        raise DimensionMismatchError(f"rhs has dim {b.size}, expected {rows}")
    solution, _, rank, _ = np.linalg.lstsq(m, b, rcond=None)
    if rank < cols:
        raise SingularMatrixError(f"matrix is rank deficient: rank {rank} < {cols} columns")
    return solution
