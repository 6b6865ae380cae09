"""Dynamical frames: iterated orbits ``{A^l phi}`` and their frame theory.

A dynamical frame materializes the orbit of a generator vector under repeated
application of an operator. This module builds orbits, computes frame bounds
(squared extreme singular values of the synthesis matrix), derives the
canonical dual frame from the frame operator, evaluates the spectral spanning
criteria (distinct block eigenvalues plus generator dependence), and issues
full-spark certificates, with structural shortcuts for geometric and for
distinct positive real spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, SingularMatrixError
from .spectral import (
    DEPENDENCE_RTOL,
    DISTINCT_RTOL,
    JordanSpec,
    depends_on_all_generators,
    eigenvalues_distinct,
)
from .validation import as_square, as_vector, frozen_copy
from .vandermonde import (
    DEFAULT_BUDGET,
    DEFAULT_SPARK_TOL,
    SparkCertificate,
    classical,
    full_spark,
)

#: Relative gap between extreme singular values below which the vectors are
#: treated as rank deficient (not a frame).
FRAME_RTOL = 1e-10

#: Recurrence slack allowed when validating externally constructed frames.
RECURRENCE_RTOL = 1e-10


@dataclass(frozen=True)
class DynamicalFrame:
    """An orbit ``phi, A phi, ..., A^(L-1) phi`` with its defining data."""

    operator: np.ndarray
    generator: np.ndarray
    length: int
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        A = as_square(self.operator, "operator")
        phi = as_vector(self.generator, "generator")
        if phi.size != A.shape[0]:
            raise DimensionMismatchError(
                f"generator has dim {phi.size}, operator is {A.shape[0]}x{A.shape[1]}"
            )
        if self.length < 1 or len(self.vectors) != self.length:
            raise DimensionMismatchError(
                f"expected {self.length} orbit vectors, got {len(self.vectors)}"
            )
        V = np.column_stack([as_vector(v, "orbit vector") for v in self.vectors])
        scale = max(np.linalg.norm(A) * np.linalg.norm(V, axis=0).max(), 1e-300)
        if np.linalg.norm(V[:, 0] - phi) > RECURRENCE_RTOL * scale:
            raise ValueError("vectors[0] must equal the generator")
        if np.any(np.linalg.norm(V[:, 1:] - A @ V[:, :-1], axis=0) > RECURRENCE_RTOL * scale):
            raise ValueError("orbit vectors do not satisfy the one-step recurrence")
        V.setflags(write=False)
        object.__setattr__(self, "operator", frozen_copy(A))
        object.__setattr__(self, "generator", frozen_copy(phi))
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "vectors", tuple(V.T))
        object.__setattr__(self, "_synthesis", V)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def synthesis(self) -> np.ndarray:
        """Read-only d x L matrix whose columns are the orbit vectors."""
        return self._synthesis

    def coefficients(self, x) -> np.ndarray:
        """Frame coefficients ``<x, A^l phi>`` for l = 0..L-1."""
        x = as_vector(x, "x")
        if x.size != self.dim:
            raise DimensionMismatchError(f"x has dim {x.size}, expected {self.dim}")
        return self.synthesis().conj().T @ x


@dataclass(frozen=True)
class FrameAnalysis:
    is_frame: bool
    lower_bound: float
    upper_bound: float
    spark: SparkCertificate | None = None


@dataclass(frozen=True)
class DualFrame:
    """Frame operator ``T = sum v_l v_l*`` and the canonical dual data.

    The dual orbit satisfies ``dual_vectors[l] = T^{-1} A^l phi`` and can be
    written as the orbit of ``dual_generator = T^{-1} phi`` under
    ``dual_operator = T^{-1} A T``. All derived objects come from linear
    solves against T; no inverse is formed.
    """

    frame_operator: np.ndarray
    dual_operator: np.ndarray
    dual_generator: np.ndarray
    dual_synthesis: np.ndarray

    def __post_init__(self):
        for name in ("frame_operator", "dual_operator", "dual_synthesis"):
            object.__setattr__(self, name, frozen_copy(np.asarray(getattr(self, name))))
        object.__setattr__(self, "dual_generator", frozen_copy(np.asarray(self.dual_generator)))

    @property
    def dual_vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.dual_synthesis[:, l] for l in range(self.dual_synthesis.shape[1]))

    def reconstruct(self, coefficients) -> np.ndarray:
        """``sum_l c_l * dual_vectors[l]``, the frame reconstruction formula."""
        c = as_vector(coefficients, "coefficients")
        if c.size != self.dual_synthesis.shape[1]:
            raise DimensionMismatchError(
                f"{c.size} coefficients for {self.dual_synthesis.shape[1]} dual vectors"
            )
        return self.dual_synthesis @ c


def build(operator, generator, length: int) -> DynamicalFrame:
    """Materialize ``{A^l phi}`` by iterated matrix-vector products."""
    A = as_square(operator, "operator")
    phi = as_vector(generator, "generator")
    if phi.size != A.shape[0]:
        raise DimensionMismatchError(
            f"generator has dim {phi.size}, operator is {A.shape[0]}x{A.shape[1]}"
        )
    if length < 1:
        raise ValueError("length must be >= 1")
    vectors = [phi]
    for _ in range(length - 1):
        vectors.append(A @ vectors[-1])
    return DynamicalFrame(A, phi, length, tuple(vectors))


def analyze(
    frame: DynamicalFrame,
    tol: float = FRAME_RTOL,
    spark: bool = False,
    spark_tol: float = DEFAULT_SPARK_TOL,
    budget: int = DEFAULT_BUDGET,
) -> FrameAnalysis:
    """Frame bounds and verdict; optionally a full-spark certificate.

    The bounds are the squared extreme singular values of the synthesis
    matrix. Fewer vectors than dimensions can never span, so the lower bound
    is reported as zero in that case.
    """
    Phi = frame.synthesis()
    sv = np.linalg.svd(Phi, compute_uv=False)
    upper = float(sv[0] ** 2)
    smin = float(sv[-1]) if frame.length >= frame.dim else 0.0
    lower = smin**2
    is_frame = smin > tol * float(sv[0])
    certificate = None
    if spark:
        certificate = full_spark(Phi, tol=spark_tol, budget=budget)
    return FrameAnalysis(bool(is_frame), lower, upper, certificate)


def frame_criterion_diagonalizable(eigenvalues, coordinates, tol: float = DISTINCT_RTOL) -> bool:
    """Spanning test for a diagonalizable operator.

    ``coordinates`` are the generator's coordinates in the eigenbasis. The
    orbit spans exactly when the eigenvalues are pairwise distinct and no
    coordinate vanishes; both tests use ``tol`` relative to the data scale.
    """
    values = as_vector(eigenvalues, "eigenvalues")
    coords = as_vector(coordinates, "coordinates")
    if values.size != coords.size:
        raise DimensionMismatchError(
            f"{values.size} eigenvalues but {coords.size} coordinates"
        )
    if not eigenvalues_distinct(values, rtol=tol):
        return False
    return bool(np.min(np.abs(coords)) > tol * np.max(np.abs(coords)))


def frame_criterion_jordan(spec: JordanSpec, generator, tol: float | None = None) -> bool:
    """Spanning test for a Jordan-structured operator.

    True when the block eigenvalues are pairwise distinct and the generator
    depends on every Jordan chain's leading vector.
    """
    if not eigenvalues_distinct(spec.eigenvalues):
        return False
    return depends_on_all_generators(spec, generator, tol=tol)


def dual(frame: DynamicalFrame, tol: float = FRAME_RTOL) -> DualFrame:
    """Canonical dual frame of a spanning orbit."""
    if not analyze(frame, tol=tol).is_frame:
        raise SingularMatrixError("orbit does not span: frame operator is singular")
    Phi = frame.synthesis()
    T = Phi @ Phi.conj().T
    dual_synthesis = np.linalg.solve(T, Phi)
    dual_operator = np.linalg.solve(T, frame.operator @ T)
    dual_generator = np.linalg.solve(T, frame.generator)
    return DualFrame(T, dual_operator, dual_generator, dual_synthesis)


def dft_matrix(dim: int) -> np.ndarray:
    """Unnormalized DFT matrix ``exp(-2i pi j k / dim)``."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(-2j * np.pi * j * k / dim)


def circulant(first_column) -> np.ndarray:
    """Circulant matrix with the given first column."""
    a = as_vector(first_column, "first_column")
    d = a.size
    idx = (np.arange(d)[:, None] - np.arange(d)[None, :]) % d
    return a[idx]


def circulant_frame(
    first_column,
    generator,
    length: int,
    tol: float = DISTINCT_RTOL,
) -> tuple[DynamicalFrame, bool]:
    """Orbit under repeated circular convolution, plus its spanning verdict.

    Circulant operators are diagonalized by the discrete Fourier basis, so
    the orbit spans exactly when the DFT of the convolution kernel has
    pairwise distinct coordinates and the DFT of the generator has no zero
    coordinate. The DFT is evaluated directly (O(d^2)), which is plenty at
    the dimensions this package targets.
    """
    a = as_vector(first_column, "first_column")
    phi = as_vector(generator, "generator")
    if a.size != phi.size:
        raise DimensionMismatchError(f"kernel has dim {a.size}, generator {phi.size}")
    frame = build(circulant(a), phi, length)
    F = dft_matrix(a.size)
    a_hat = F @ a
    phi_hat = F @ phi
    criterion = eigenvalues_distinct(a_hat, rtol=tol) and bool(
        np.min(np.abs(phi_hat)) > DEPENDENCE_RTOL * max(np.max(np.abs(phi_hat)), 1e-300)
    )
    return frame, criterion


def harmonic_frame(dim: int, length: int) -> DynamicalFrame:
    """Orbit of the all-ones vector under ``diag(w^0, ..., w^(dim-1))``, w = exp(2i pi / length).

    The synthesis matrix is a row subset of the length-point inverse DFT
    matrix; for ``length >= dim`` this frame spans and has full spark.
    """
    if length < dim:
        raise ValueError(f"need length >= dim, got dim={dim}, length={length}")
    w = np.exp(2j * np.pi / length)
    A = np.diag(w ** np.arange(dim))
    return build(A, np.ones(dim, dtype=complex), length)


def _geometric_ratio(values: np.ndarray) -> complex | None:
    """Ratio r when values follow values[k] = values[0] * r^k, else None."""
    if values.size < 2 or abs(values[0]) == 0.0:
        return None
    r = complex(values[1] / values[0])
    predicted = values[0] * r ** np.arange(values.size)
    scale = float(np.max(np.abs(values)))
    if np.max(np.abs(values - predicted)) > 1e-12 * max(scale, 1.0):
        return None
    return r


def full_spark_criterion(
    eigenvalues,
    coordinates,
    length: int,
    tol: float = DEFAULT_SPARK_TOL,
    budget: int = DEFAULT_BUDGET,
) -> SparkCertificate:
    """Full-spark certificate for the orbit of a diagonalizable operator.

    The orbit has full spark exactly when the generator's eigenbasis
    coordinates all stay nonzero and the eigenvalue power matrix
    ``classical(eigenvalues, length)`` has full spark. Two spectra admit
    shortcuts that skip enumeration entirely:

    * geometric eigenvalues ``v[k] = v[0] * r^k`` where no power
      ``r^1..r^(length-1)`` equals one (every minor is then an invertible
      Vandermonde matrix in distinct points), and
    * pairwise distinct, strictly positive real eigenvalues (every minor's
      determinant is a positive combination of Schur values). A zero
      eigenvalue is excluded from this shortcut on purpose: any minor that
      skips the constant column then has an all-zero row, so nonnegative
      spectra do not in general give full spark.
    """
    values = as_vector(eigenvalues, "eigenvalues")
    coords = as_vector(coordinates, "coordinates")
    d = values.size
    if coords.size != d:
        raise DimensionMismatchError(f"{d} eigenvalues but {coords.size} coordinates")
    if length < d:
        raise ValueError(f"need length >= {d}, got {length}")
    if not eigenvalues_distinct(values):
        raise ValueError("eigenvalues coincide: the orbit is not even a frame")
    if np.min(np.abs(coords)) <= DEPENDENCE_RTOL * np.max(np.abs(coords)):
        # a dead eigendirection confines the orbit to a hyperplane, so every
        # d-subset is singular; the lexicographically first one is returned
        return SparkCertificate(False, tuple(range(d)), 0.0)

    scale = max(1.0, float(np.max(np.abs(values))))
    ratio = _geometric_ratio(values)
    if ratio is not None and abs(ratio) > 0.0:
        powers = ratio ** np.arange(1, length)
        if np.min(np.abs(powers - 1.0)) > DISTINCT_RTOL:
            return SparkCertificate(True, None, None)
    if (
        np.max(np.abs(values.imag)) <= 1e-12 * scale
        and np.min(values.real) > DISTINCT_RTOL * scale
    ):
        return SparkCertificate(True, None, None)

    return full_spark(classical(values, length), tol=tol, budget=budget)
