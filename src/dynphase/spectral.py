"""Jordan-structured operators.

A non-diagonalizable operator is never decomposed numerically (that problem
is ill-posed); instead it is supplied as an explicit :class:`JordanSpec`,
which fixes the block eigenvalues, block sizes, and the similarity basis.
This module assembles such operators, writes the binomial powers of a
Jordan block once (:func:`binomial_powers`, the first row of a block's
powers and the confluent Vandermonde columns that the spark criterion
enumerates), and tests whether a generator vector reaches every Jordan chain
(:func:`loads_every_chain`, which also serves diagonalizable operators as
blocks of size one). No operator is eigendecomposed: ``frames.analyze``
judges an exactly diagonal operator by its diagonal and enumerates the
minors of every other orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, SingularMatrixError
from .validation import as_multiplicities, as_square, as_vector, frozen_copy

#: Condition-number ceiling for a user-supplied similarity basis.
BASIS_COND_LIMIT = 1e12

#: Relative threshold for "these eigenvalues are distinct".
DISTINCT_RTOL = 1e-9

#: Relative threshold for "this coordinate is nonzero" in dependence tests.
DEPENDENCE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class JordanSpec:
    """Exact structural description of an operator ``S J S^{-1}``.

    ``eigenvalues[j]`` and ``multiplicities[j]`` describe the j-th Jordan
    block (size ``multiplicities[j]``, eigenvalue on the diagonal, ones on
    the superdiagonal); ``basis`` holds the generalized eigenvectors
    column-blocked in the same order. Eigenvalues are allowed to repeat
    across blocks; spanning criteria test distinctness separately.
    """

    eigenvalues: np.ndarray
    multiplicities: tuple[int, ...]
    basis: np.ndarray

    def __post_init__(self):
        values = as_vector(self.eigenvalues, "eigenvalues")
        mults = as_multiplicities(self.multiplicities, values.size)
        basis = as_square(self.basis, "basis")
        if sum(mults) != basis.shape[0]:
            raise DimensionMismatchError(
                f"multiplicities sum to {sum(mults)} but basis is {basis.shape[0]}x{basis.shape[1]}"
            )
        spread = np.linalg.svd(basis, compute_uv=False)
        if spread[-1] == 0.0 or spread[0] / spread[-1] > BASIS_COND_LIMIT:
            raise SingularMatrixError("similarity basis is numerically singular")
        object.__setattr__(self, "eigenvalues", frozen_copy(values))
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "basis", frozen_copy(basis))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def block_slices(self) -> list[slice]:
        slices, start = [], 0
        for m in self.multiplicities:
            slices.append(slice(start, start + m))
            start += m
        return slices


def jordan_matrix(spec: JordanSpec) -> np.ndarray:
    """The block-diagonal Jordan matrix J described by ``spec``."""
    d = spec.dim
    J = np.zeros((d, d), dtype=complex)
    for lam, sl in zip(spec.eigenvalues, spec.block_slices()):
        size = sl.stop - sl.start
        J[sl, sl] = lam * np.eye(size) + np.eye(size, k=1)
    return J


def assemble(spec: JordanSpec) -> np.ndarray:
    """Materialize the operator ``S J S^{-1}``."""
    S = spec.basis
    SJ = S @ jordan_matrix(spec)
    # A = (S J) S^{-1}, computed as a solve against S^T to avoid forming the inverse
    return np.linalg.solve(S.T, SJ.T).T


def binomial_powers(lam, size: int, power: int) -> np.ndarray:
    """``binom(power, k) * lam ** (power - k)`` for ``k = 0..size-1``, zero for ``k > power``.

    This is column ``power`` of the confluent Vandermonde block of ``lam``,
    and the first row of ``J ** power`` for its Jordan block J of that size.
    Binomials are exact integers rounded once (OverflowError past the double
    range), and they scale the real and imaginary parts separately, so entry
    0 is ``lam ** power`` bit for bit. The power is ``lam``'s own: numpy's
    for a numpy scalar (as in ``classical``; inf on overflow), Python's for
    a Python complex (OverflowError on overflow).
    """
    out = np.zeros(size, dtype=complex)
    for k in range(min(size, power + 1)):
        try:
            coeff = float(math.comb(power, k))
        except OverflowError as exc:
            raise OverflowError(
                f"binomial({power},{k}) does not fit in a float; power too large"
            ) from exc
        term = lam ** (power - k)
        out[k] = complex(coeff * term.real, coeff * term.imag)
    return out


def generator_coordinates(spec: JordanSpec, generator) -> np.ndarray:
    """Coordinates ``S^{-1} phi`` of a generator, block ``j`` at ``spec.block_slices()[j]``."""
    phi = as_vector(generator, "generator")
    if phi.size != spec.dim:
        raise DimensionMismatchError(f"generator has dim {phi.size}, expected {spec.dim}")
    return np.linalg.solve(spec.basis, phi)


def loads_every_chain(coords: np.ndarray, multiplicities) -> bool:
    """True when the last coordinate of every block exceeds ``DEPENDENCE_RTOL`` of the largest.

    ``coords`` are a generator's coordinates in a Jordan basis whose blocks
    have sizes ``multiplicities``, in order; the last coordinate of a block
    is the weight on that Jordan chain's leading vector. A diagonalizable
    operator is the case of blocks of size one, where every coordinate must
    pass. ``DEPENDENCE_RTOL * max |coordinate|`` is the floating-point
    surrogate for "nonzero". The spanning criterion and the spark criterion
    of :mod:`dynphase.frames` take their generator-dependence test from here;
    for a :class:`JordanSpec` pass ``generator_coordinates(spec, phi)`` and
    ``spec.multiplicities``.
    """
    mags = np.abs(coords)
    leading = mags[np.cumsum(multiplicities) - 1]
    return bool(np.all(leading > DEPENDENCE_RTOL * np.max(mags)))


def min_eigenvalue_gap(values) -> float:
    """Smallest pairwise distance among eigenvalues (inf for a single one)."""
    v = as_vector(values, "values")
    if v.size < 2:
        return float("inf")
    diff = v[:, None] - v[None, :]
    off = np.abs(diff[~np.eye(v.size, dtype=bool)])
    return float(off.min())


def eigenvalues_distinct(values) -> bool:
    """Pairwise-distinctness test: every gap exceeds ``DISTINCT_RTOL * max(1, max |v|)``."""
    v = as_vector(values, "values")
    scale = max(1.0, float(np.max(np.abs(v))))
    return min_eigenvalue_gap(v) > DISTINCT_RTOL * scale
