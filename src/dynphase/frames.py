"""Dynamical frames: iterated orbits ``{A^l phi}`` and their frame theory.

A dynamical frame materializes the orbit of a generator vector under repeated
application of an operator. The orbit is built by repeated squaring: each
block of columns is one power ``A^s`` times the block before it, and ``s``
doubles by squaring, so L columns take about ``log2 L`` squarings and as
many block products. A power whose computation over- or underflows is not
used; the blocks then stay as wide as the last power that was.

This module builds orbits, computes frame bounds (squared extreme singular
values of the synthesis matrix, read from the thin SVD of its rows that
each frame computes once and keeps), and evaluates one
spanning criterion and one spark criterion for every operator ``S J S^{-1}``,
a diagonalizable one being the case of Jordan blocks of size one. For unit
blocks the spark criterion has structural shortcuts for geometric and for
distinct positive real spectra. ``analyze`` takes
those shortcuts for every exactly diagonal operator (harmonic frames among
them), whose eigenvalues are its diagonal and whose eigenbasis coordinates
are the generator itself, and each frame decides them once; any other
operator has its minors enumerated, those through column 0 factored and the
rest scaled from them by powers of ``det(A)``. A harmonic frame depends on
``(dim, length)`` alone, so :func:`harmonic_frame` builds each one once and
shares it.

No canonical dual frame is built: its frame operator ``Phi Phi^H`` squares
the orbit's condition number (see the README).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import DimensionMismatchError
from .spectral import DISTINCT_RTOL, eigenvalues_distinct, loads_every_chain
from .validation import as_multiplicities, as_square, as_vector, frozen_copy
from .vandermonde import DEFAULT_BUDGET, SparkCertificate, full_spark, second_kind

#: Relative gap between extreme singular values below which the vectors are
#: treated as rank deficient (not a frame).
FRAME_RTOL = 1e-10

#: Harmonic frames that :func:`harmonic_frame` keeps, the least recently used evicted first.
_HARMONIC_FRAMES = 8


@dataclass(frozen=True, eq=False)
class DynamicalFrame:
    """The orbit ``phi, A phi, ..., A^(L-1) phi``, computed from its defining data.

    The orbit is written in place into the rows of one L x d array, in
    blocks: with ``P = (A^s)^T``, rows ``n..n+s-1`` are rows ``n-s..n-1``
    times ``P`` (one matmul), and ``P`` is squared and ``s`` doubled each
    time ``n`` reaches ``2s`` with more than ``s`` rows left. A square whose
    computation over- or underflows is never used: ``s`` stays, and the
    blocks go on ``s`` rows wide (``s = 1`` is the step-by-step recurrence
    ``A @ v``), so an orbit whose columns are finite is built even when its
    powers of ``A`` are not, and emits no warning. The synthesis matrix is
    the rows' C-contiguous transpose: that layout fixes the bits of
    :meth:`coefficients`. An orbit that overflows raises ``ValueError``
    naming its first non-finite column. Kept with the frame:
    its read-only rows ``synthesis().conj().T`` (``_rows``), read by every
    coefficient evaluation and row solve, and from first use their thin SVD
    (``_row_svd``: every singular value, for :func:`analyze`, and the factors
    cut at ``lstsq``'s rank, for the all-L-row solves of ``_solve_rows``) and
    whether :func:`analyze` certifies full spark by structure
    (``_spark_by_structure``). A frame is immutable: its fields and every
    array it holds or hands out are read-only, and what it keeps from first
    use is what a fresh frame computes, bit for bit. So one frame can serve
    any number of callers, as :func:`harmonic_frame`'s shared frames do.
    """

    operator: np.ndarray
    generator: np.ndarray
    length: int

    def __post_init__(self):
        A = as_square(self.operator, "operator")
        phi = as_vector(self.generator, "generator")
        if phi.size != A.shape[0]:
            raise DimensionMismatchError(
                f"generator has dim {phi.size}, operator is {A.shape[0]}x{A.shape[1]}"
            )
        if self.length < 1:
            raise ValueError("length must be >= 1")
        rows = np.empty((self.length, phi.size), dtype=complex)
        rows[0] = phi
        step, s, n = A.T, 1, 1  # step is (A^s)^T: rows[l + s] = rows[l] @ step
        while n < self.length:
            if n == 2 * s and n + s < self.length:
                with suppress(FloatingPointError), np.errstate(all="raise"):
                    step, s = step @ step, 2 * s  # kept only if nothing over- or underflowed
            m = min(s, self.length - n)
            np.matmul(rows[n - s : n - s + m], step, out=rows[n : n + m])
            n += m
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ValueError(f"orbit column A^{finite.argmin()} phi is not finite (overflow)")
        V = np.ascontiguousarray(rows.T)
        conj_rows = V.conj().T  # in the layout of synthesis().conj().T, whose bits it keeps
        for a in (V, conj_rows):
            a.setflags(write=False)
        object.__setattr__(self, "operator", frozen_copy(A))
        object.__setattr__(self, "generator", frozen_copy(phi))
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "_synthesis", V)
        object.__setattr__(self, "_rows", conj_rows)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def synthesis(self) -> np.ndarray:
        """Read-only d x L matrix whose columns are the orbit vectors."""
        return self._synthesis

    @cached_property
    def _row_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(Z, s, Wh)``: every singular value s of the rows ``W diag(s) Zh``.

        ``Z = Zh[:r]^H`` and ``Wh = W[:, :r]^H`` keep the r above ``lstsq``'s default cutoff.
        """
        W, s, Zh = np.linalg.svd(self._rows, full_matrices=False)
        rank = int(np.count_nonzero(s > np.finfo(float).eps * max(self.length, self.dim) * s[0]))
        factors = (Zh[:rank].conj().T, s, W[:, :rank].conj().T)
        for a in factors:
            a.setflags(write=False)
        return factors

    @cached_property
    def _spark_by_structure(self) -> bool:
        """Whether the operator is exactly diagonal (``length >= dim``) and its diagonal and
        generator pass :func:`frame_criterion` and a ``_structurally_full_spark`` shortcut."""
        A = self.operator
        diagonal = np.diagonal(A)
        return bool(
            self.length >= self.dim
            and not np.any(A - np.diag(diagonal))
            and frame_criterion(diagonal, self.generator)
            and _structurally_full_spark(diagonal, self.length)
        )

    def _solve_rows(self, indices, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """``lstsq``'s solution of the rows ``indices``, and their rank; L rows use ``_row_svd``."""
        if len(indices) < self.length:
            solution, _, rank, _ = np.linalg.lstsq(self._rows[indices], rhs, rcond=None)
            return solution, int(rank)
        Z, s, Wh = self._row_svd
        b = np.empty(self.length, dtype=complex)
        b[indices] = rhs
        return Z @ ((Wh @ b) / s[: Z.shape[1]]), Z.shape[1]

    def coefficients(self, x) -> np.ndarray:
        """Frame coefficients ``<x, A^l phi>`` for l = 0..L-1.

        The inner product is conjugate-linear in the second argument,
        ``<x, y> = sum_k x[k] * conj(y[k])``, and every phase convention in
        this package follows from that choice.
        """
        x = as_vector(x, "x")
        if x.size != self.dim:
            raise DimensionMismatchError(f"x has dim {x.size}, expected {self.dim}")
        return self._rows @ x


@dataclass(frozen=True)
class FrameAnalysis:
    is_frame: bool
    lower_bound: float
    upper_bound: float
    spark: SparkCertificate | None = None


def build(operator, generator, length: int) -> DynamicalFrame:
    """Materialize ``{A^l phi}``; powers of ``A`` come by repeated squaring.

    See :class:`DynamicalFrame` for the blocks, for what happens when a
    power over- or underflows, and for the ``ValueError`` of an orbit whose
    own columns overflow.
    """
    return DynamicalFrame(operator, generator, length)


def analyze(
    frame: DynamicalFrame, *, spark: bool = False, budget: int = DEFAULT_BUDGET
) -> FrameAnalysis:
    """Frame bounds and verdict; optionally a full-spark certificate.

    The bounds are the squared extreme singular values of the synthesis
    matrix, and the orbit is a frame when ``sigma_min > FRAME_RTOL *
    sigma_max``. Fewer vectors than dimensions can never span, so the lower
    bound is reported as zero in that case.

    With ``spark=True`` an exactly diagonal operator (``length >= dim``) is
    first tried against :func:`frame_criterion` and the structural
    shortcuts of :func:`full_spark_criterion`, with its diagonal
    as the eigenvalues and the generator as the eigenbasis coordinates,
    once per frame. When both pass, the certificate is ``SparkCertificate(True,
    None, None)``: no minor is enumerated and ``budget`` is not consulted. Every
    other orbit, including every non-diagonal one, is certified by
    enumerating its minors with :func:`~dynphase.vandermonde.full_spark`,
    which raises ``BudgetExceededError`` past ``budget`` subsets, given
    ``shift_det=det(A)`` as it is, overflowed or not (see there).
    """
    sv = frame._row_svd[1]
    upper = float(sv[0] ** 2)
    smin = float(sv[-1]) if frame.length >= frame.dim else 0.0
    lower = smin**2
    is_frame = smin > FRAME_RTOL * float(sv[0])
    certificate = None
    if spark:
        if frame._spark_by_structure:
            certificate = SparkCertificate(True, None, None)
        else:
            shift_det = np.linalg.det(frame.operator)
            certificate = full_spark(frame.synthesis(), budget=budget, shift_det=shift_det)
    return FrameAnalysis(bool(is_frame), lower, upper, certificate)


def frame_criterion(eigenvalues, coordinates, multiplicities=None) -> bool:
    """Spanning test for the orbit of an operator ``S J S^{-1}``.

    Block j of J has eigenvalue ``eigenvalues[j]`` and size
    ``multiplicities[j]`` (None: all of size one, a diagonalizable
    operator); ``coordinates`` are ``S^{-1} phi``, for a ``JordanSpec``
    ``generator_coordinates(spec, phi)``. The orbit spans exactly when the
    eigenvalues are pairwise distinct and the generator loads every Jordan
    chain (:func:`~dynphase.spectral.loads_every_chain`).
    """
    values, coords, mults = _spectrum(eigenvalues, coordinates, multiplicities)
    return eigenvalues_distinct(values) and loads_every_chain(coords, mults)


def _spectrum(eigenvalues, coordinates, multiplicities):
    """``(values, coords, mults)``, checked for one coordinate per block entry."""
    values = as_vector(eigenvalues, "eigenvalues")
    coords = as_vector(coordinates, "coordinates")
    sizes = (1,) * values.size if multiplicities is None else multiplicities
    mults = as_multiplicities(sizes, values.size)
    if sum(mults) != coords.size:
        raise DimensionMismatchError(
            f"blocks {mults} need {sum(mults)} coordinates, got {coords.size}"
        )
    return values, coords, mults


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


def circulant_frame(first_column, generator, length: int) -> tuple[DynamicalFrame, bool]:
    """Orbit under repeated circular convolution, plus its spanning verdict.

    Circulant operators are diagonalized by the discrete Fourier basis, so
    the verdict is :func:`frame_criterion` with the DFT of
    the convolution kernel as the eigenvalues and the DFT of the generator
    as the coordinates. The DFT is evaluated directly (O(d^2)), which is
    plenty at the dimensions this package targets.
    """
    a = as_vector(first_column, "first_column")
    phi = as_vector(generator, "generator")
    if a.size != phi.size:
        raise DimensionMismatchError(f"kernel has dim {a.size}, generator {phi.size}")
    frame = build(circulant(a), phi, length)
    F = dft_matrix(a.size)
    return frame, frame_criterion(F @ a, F @ phi)


@lru_cache(maxsize=_HARMONIC_FRAMES, typed=True)
def harmonic_frame(dim: int, length: int) -> DynamicalFrame:
    """Orbit of the all-ones vector under ``diag(w^0, ..., w^(dim-1))``, w = exp(2i pi / length).

    The synthesis matrix is a row subset of the length-point inverse DFT
    matrix; for ``length >= dim`` this frame spans and has full spark.

    The frame is shared: calls with equal arguments of equal types, passed
    the same way, return one immutable frame, so its orbit is built and its
    rows factored once (see :class:`DynamicalFrame`). The
    ``_HARMONIC_FRAMES`` = 8 frames used last are kept, each about ``3 *
    dim * length`` complex values (0.4 MB at 32/272) once factored.
    ``harmonic_frame.cache_clear()`` drops them. Arguments are keyed by
    type, so ``4.0`` or ``True`` for an int raises ``TypeError`` as it
    would on a fresh build.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
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


def _structurally_full_spark(values: np.ndarray, length: int) -> bool:
    """True when a structural shortcut proves the orbit has full spark.

    ``values`` are a diagonalizable operator's eigenvalues, with ``length >=
    values.size``, and the orbit must already pass :func:`frame_criterion`
    with unit blocks (distinct eigenvalues, no vanishing eigenbasis
    coordinate of the generator). Then either spectrum
    below certifies every d-column minor:

    * geometric eigenvalues ``v[k] = v[0] * r^k`` where no power
      ``r^1..r^(length-1)`` equals one (every minor is then an invertible
      Vandermonde matrix in distinct points), or
    * pairwise distinct, strictly positive real eigenvalues (every minor's
      determinant is a positive combination of Schur values). A zero
      eigenvalue is excluded on purpose: any minor that skips the constant
      column then has an all-zero row, so nonnegative spectra do not in
      general give full spark.

    False means only that no shortcut applies, not that the orbit fails.
    """
    ratio = _geometric_ratio(values)
    if ratio is not None and abs(ratio) > 0.0:
        powers = ratio ** np.arange(1, length)
        if np.min(np.abs(powers - 1.0)) > DISTINCT_RTOL:
            return True
    scale = max(1.0, float(np.max(np.abs(values))))
    return bool(
        np.max(np.abs(values.imag)) <= 1e-12 * scale
        and np.min(values.real) > DISTINCT_RTOL * scale
    )


def full_spark_criterion(
    eigenvalues, coordinates, length: int, multiplicities=None
) -> SparkCertificate:
    """Full-spark certificate for the orbit of an operator ``S J S^{-1}``.

    The arguments are those of :func:`frame_criterion`. The orbit is ``S *
    blockdiag(H_j) * second_kind(eigenvalues, multiplicities, length)``,
    where ``c_j`` are the generator's coordinates in Jordan block j and
    ``H_j`` is their Hankel block, ``H[k, n] = c_j[k + n]`` for
    ``k + n < m_j``, else 0. ``H_j`` has determinant ``+-(last entry of
    c_j)^(m_j)``, so the orbit has full spark exactly when the generator
    loads every Jordan chain and the confluent matrix has full spark. For unit
    blocks (the confluent matrix is then ``classical``) the shortcuts of
    ``_structurally_full_spark``, which :func:`analyze` shares, skip
    enumeration and give ``min_abs_det=None``. Otherwise the confluent
    matrix is enumerated within ``DEFAULT_BUDGET`` subsets as the orbit it
    is, with ``shift_det = prod(eigenvalues ** multiplicities)`` as it is. A
    confluent matrix that overflows raises ``ValueError`` naming its first
    non-finite column.
    """
    values, coords, mults = _spectrum(eigenvalues, coordinates, multiplicities)
    d = coords.size
    if length < d:
        raise ValueError(f"need length >= {d}, got {length}")
    if not eigenvalues_distinct(values):
        raise ValueError("eigenvalues coincide: the orbit is not even a frame")
    if not loads_every_chain(coords, mults):
        # a dead Jordan chain confines the orbit to a hyperplane, so every
        # d-subset is singular; the lexicographically first one is returned
        return SparkCertificate(False, tuple(range(d)), 0.0)
    if max(mults) == 1 and _structurally_full_spark(values, length):
        return SparkCertificate(True, None, None)
    confluent = second_kind(values, mults, length)
    finite = np.isfinite(confluent).all(axis=0)
    if not finite.all():
        raise ValueError(f"confluent column {finite.argmin()} is not finite (overflow)")
    return full_spark(confluent, shift_det=np.prod(values ** np.array(mults)))
