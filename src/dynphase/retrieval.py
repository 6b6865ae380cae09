"""Phase retrieval from phaseless dynamical samples.

``measure`` simulates the magnitude data for a signal x over a dynamical
frame: the base magnitudes ``|<x, A^l phi>|`` plus the aligned magnitudes
``|<x, A^l (phi + exp(1j a_k) A^j phi)>|`` for offsets ``j = 1..jumps+1``.
Under the conjugate-linear-second-argument inner product the aligned value
expands to ``|c_l + exp(-1j a_k) c_{l+j}|`` with ``c_l = <x, A^l phi>``,
which is ``|conj(c_l) + exp(1j a_k) conj(c_{l+j})|``: polarization with the
set's own angle pair gives the phase of ``c_l conj(c_{l+j})``, the relative
phase conjugated.

A :class:`MeasurementSet` stores the aligned magnitudes in one float grid,
``grid[j - 1, k - 1, l]`` for offset j, angle family k and index l, of shape
``(jumps + 1, K, L - 1)`` with K = 2 (K = 1 in real mode) and NaN past
``L - j``; ``aligned`` is a lazy read-only ``(l, j, k)`` mapping of its cells.
``measure`` fills the grid with one array expression per offset and writes
its NaN padding. When one bound on the largest base magnitude shows every
value finite, it hands both arrays to the set as they are, read-only,
without the copy and the per-value checks of the public constructor; any
other set goes through those checks. The polarization steps of a chain are
solved for all of its edges at once, and :func:`recover_full_spark` hands
its fresh estimate to the result the same way.

Recovery, :func:`recover_full_spark`, chains phases over the indices whose
base magnitude is nonzero. A component is a maximal run of nonzero indices
whose gaps stay within ``jumps + 1``; phases chain along its consecutive
indices (l, m), each step taken from the polarization product
``conj(c_l) c_m`` of the aligned family ``j = m - l``; a set with one family
(real mode) gives signs instead. The set alone decides the offsets and the
formula; of the config, recovery reads only ``zero_tol``. Indices classified
as zero still contribute: each pins the linear constraint
``<x, A^l phi> = 0``. A connected chain of size s together with m zero
indices gives s + m independent rows over a full-spark frame, so recovery
needs a chain of size ``dim - m`` rather than ``dim``, and none once
``m >= dim``: one row solve decides every set. Each frame keeps its rows and
their one factorization, through which it solves its own rows, and each
angle pair its unmixing matrix and its shift factors, for all calls.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .exceptions import DimensionMismatchError, InconsistentDataError, SingularMatrixError
from .frames import DynamicalFrame
from .polarization import MAGNITUDE_RTOL, PolarizationAngles, recover_phases, recover_signs
from .validation import as_vector, frozen_copy

DEFAULT_ZERO_TOL = 1e-9

# the largest base magnitude for which measure hands its arrays over unchecked
_ADOPT_MAX = np.finfo(float).max / 4

# recovery takes a set as given while the frexp exponent e of its largest base magnitude has
# |e| <= this, so products of magnitudes above 2^-250 of it stay normal; else it scales by 2^-e
_UNSCALED_EXPONENT = 256


def default_angles() -> PolarizationAngles:
    """The best-conditioned admissible pair: |sin(a1 - a2)| = 1."""
    return PolarizationAngles(0.0, math.pi / 2.0)


@dataclass(frozen=True)
class MeasurementConfig:
    """How measurements are taken and interpreted.

    ``jumps`` is the number of consecutive zeros a chain edge may skip;
    aligned offsets run ``j = 1..jumps+1``. In ``real_mode`` a single aligned
    family with the real shift sign ``angles.real_sign`` replaces the
    two-angle family, so alpha1 must then be a multiple of pi.
    :func:`measure` records these three in the set, and recovery reads them
    from there; of the config it uses only ``zero_tol``: a base magnitude at
    or below ``max(zero_tol, polarization.MAGNITUDE_RTOL)`` (1e-12) times the
    largest is a zero, so no chain edge meets polarization's pair floor.

    The fields are stored as a Python ``int``, ``float`` and ``bool``, the
    types the config's JSON holds, so numpy scalars are accepted. A bool
    ``jumps``, a ``real_mode`` that is not a bool and ``angles`` that are
    not a :class:`PolarizationAngles` raise ``TypeError``, since the JSON
    schema refuses the first two and cannot write the third.
    """

    angles: PolarizationAngles = field(default_factory=default_angles)
    jumps: int = 0
    zero_tol: float = DEFAULT_ZERO_TOL
    real_mode: bool = False

    def __post_init__(self):
        if not isinstance(self.angles, PolarizationAngles):
            raise TypeError(f"angles must be PolarizationAngles, got {type(self.angles).__name__}")
        if isinstance(self.jumps, bool):
            raise TypeError("jumps must be an integer, not a bool")
        if not isinstance(self.real_mode, (bool, np.bool_)):
            raise TypeError(f"real_mode must be a bool, got {type(self.real_mode).__name__}")
        object.__setattr__(self, "jumps", operator.index(self.jumps))
        object.__setattr__(self, "real_mode", bool(self.real_mode))
        if self.jumps < 0:
            raise ValueError("jumps must be >= 0")
        if not (0.0 < self.zero_tol < 1.0):
            raise ValueError("zero_tol must lie strictly between 0 and 1")
        object.__setattr__(self, "zero_tol", float(self.zero_tol))
        if self.real_mode:
            self.angles.real_sign  # ValueError unless alpha1 is a multiple of pi


def _finite_nonnegative(values: np.ndarray) -> np.ndarray:
    # NaN fails both comparisons, +inf the second
    return (values >= 0.0) & (values < math.inf)


def _cells(length: int, jumps: int) -> np.ndarray:
    """The cells that exist, broadcast over k: ``[j - 1, 0, l]`` is true where ``l < length - j``."""
    return np.arange(max(length - 1, 0)) < length - np.arange(1, jumps + 2)[:, None, None]


def _grid_from_dict(aligned: Mapping, length: int, jumps: int) -> np.ndarray:
    """The grid of a complete ``{(l, j, k): value}`` mapping."""
    families = 2 if any(k == 2 for (_, _, k) in aligned) else 1
    grid = np.full((jumps + 1, families, max(length - 1, 0)), np.nan)
    outside = 0
    for (l, j, k), v in aligned.items():
        l, j, k, v = int(l), int(j), int(k), float(v)
        if not 0.0 <= v < math.inf:
            raise ValueError(f"aligned[{(l, j, k)}] must be finite nonnegative, got {v}")
        if 1 <= j <= jumps + 1 and 1 <= k <= families and 0 <= l < length - j:
            grid[j - 1, k - 1, l] = v
        else:
            outside += 1
    # the first missing cell in (l, j, k) order
    missing = (np.isnan(grid) & _cells(length, jumps)).transpose(2, 0, 1)
    if missing.any():
        l, j, k = np.unravel_index(missing.argmax(), missing.shape)
        raise ValueError(f"aligned grid incomplete: missing {(int(l), int(j) + 1, int(k) + 1)}")
    if outside:
        raise ValueError(f"aligned holds {outside} key(s) outside the grid")
    return grid


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Base and aligned magnitudes of one signal over one frame.

    ``grid[j - 1, k - 1, l]`` is the aligned magnitude of index l, offset j
    and angle family k. The grid has shape ``(jumps + 1, K, length - 1)``,
    with K = 2 for the two-angle families and K = 1 for real mode's single
    shift; cells with ``l >= length - j`` do not exist and hold NaN.

    ``grid`` is given as that array (its padding is ignored) or as a complete
    ``{(l, j, k): value}`` mapping, converted once; the array is the only
    stored form, and :attr:`aligned` is a lazy read-only view of it.
    """

    length: int
    jumps: int
    angles: PolarizationAngles
    base: np.ndarray
    grid: np.ndarray | Mapping[tuple[int, int, int], float]

    def __post_init__(self):
        length, jumps = operator.index(self.length), operator.index(self.jumps)
        base = np.array(self.base, dtype=float)
        if base.shape != (length,):
            raise DimensionMismatchError(
                f"base must hold {length} values, got shape {base.shape}"
            )
        if jumps < 0:
            raise ValueError("jumps must be >= 0")
        if isinstance(self.grid, np.ndarray):
            grid = np.array(self.grid, dtype=float)
            shape = (jumps + 1, grid.shape[1] if grid.ndim == 3 else 0, max(length - 1, 0))
            if grid.shape != shape or shape[1] not in (1, 2):
                raise DimensionMismatchError(
                    f"aligned grid must have shape ({jumps + 1}, 1 or 2, {shape[2]}), "
                    f"got {grid.shape}"
                )
        else:
            grid = _grid_from_dict(self.grid, length, jumps)
        exists = _cells(length, jumps)
        np.copyto(grid, np.nan, where=~exists)
        if not _finite_nonnegative(base).all():
            raise ValueError("base magnitudes must be finite and nonnegative")
        # only the NaN padding may fail the test
        if np.count_nonzero(_finite_nonnegative(grid)) != grid.shape[1] * np.count_nonzero(exists):
            raise ValueError("aligned magnitudes must be finite and nonnegative")
        base.setflags(write=False)
        grid.setflags(write=False)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def _adopt(cls, length: int, jumps: int, angles, base, grid) -> "MeasurementSet":
        """The hand-off of :func:`measure` and of recovery's rescaled copy: read-only, no check.

        The caller has built both as float64, shown every cell finite and
        nonnegative, and padded the grid with NaN.
        """
        base.setflags(write=False)
        grid.setflags(write=False)
        ms = object.__new__(cls)
        vars(ms).update(length=length, jumps=jumps, angles=angles, base=base, grid=grid)
        return ms

    @cached_property
    def aligned(self) -> Mapping[tuple[int, int, int], float]:
        """The grid's non-NaN cells as a read-only ``(l, j, k)`` mapping, keys sorted."""
        cells = self.grid.transpose(2, 0, 1)
        exists = ~np.isnan(cells)  # C order on (l, j - 1, k - 1) is sorted key order
        keys, values = np.argwhere(exists).tolist(), cells[exists].tolist()
        return MappingProxyType({(l, j + 1, k + 1): v for (l, j, k), v in zip(keys, values)})

    @property
    def has_two_angles(self) -> bool:
        return self.grid.shape[1] == 2


class RecoveryStatus(Enum):
    RECOVERED = "Recovered"
    FAILED = "Failed"


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Estimate plus chain diagnostics.

    ``used_indices`` are the indices whose phase was assigned;
    ``component_size`` counts every frame index that contributed a linear
    constraint (the phased chain plus the zero-pinned indices); ``residual``
    is the Euclidean distance between the remeasured and the given base
    magnitudes, a phase-free consistency check.
    """

    estimate: np.ndarray
    status: RecoveryStatus
    used_indices: tuple[int, ...]
    component_size: int
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "estimate", frozen_copy(np.asarray(self.estimate)))
        ids = self.used_indices  # an array turns into plain ints in one tolist pass
        ids = ids.astype(np.intp).tolist() if isinstance(ids, np.ndarray) else map(int, ids)
        object.__setattr__(self, "used_indices", tuple(ids))

    @classmethod
    def _adopt(cls, estimate, status, used_indices, component_size, residual) -> "RecoveryResult":
        """:func:`recover_full_spark`'s hand-off: its own estimate, made read-only, no copy.

        ``used_indices`` must already be a tuple of ints.
        """
        estimate.setflags(write=False)
        result = object.__new__(cls)
        vars(result).update(
            estimate=estimate,
            status=status,
            used_indices=used_indices,
            component_size=component_size,
            residual=residual,
        )
        return result


def measure(x, frame: DynamicalFrame, config: MeasurementConfig) -> MeasurementSet:
    """Simulate the phaseless measurement set for a known signal."""
    x = as_vector(x, "x")
    if x.size != frame.dim:
        raise DimensionMismatchError(f"x has dim {x.size}, frame dim is {frame.dim}")
    min_length(frame.dim, config.jumps)  # ValueError for jumps beyond dim - 2
    coeffs = frame._rows @ x  # frame.coefficients(x) minus its second check of x
    length, jumps = frame.length, config.jumps
    if config.real_mode:
        shifts = np.array([complex(config.angles.real_sign)])
    else:
        shifts = config.angles._shifts
    # the cells past length - j stay NaN, the padding MeasurementSet writes
    grid = np.full((jumps + 1, shifts.size, max(length - 1, 0)), np.nan)
    for j in range(1, min(jumps + 1, length - 1) + 1):
        z = coeffs[: length - j] + shifts[:, None] * coeffs[j:]
        # hypot, not np.abs: the vectorized complex abs can differ from the
        # scalar abs by one ulp, which moves borderline recoveries
        grid[j - 1, :, : length - j] = np.hypot(z.real, z.imag)
    base = np.abs(coeffs)
    # a cell |c_l + s c_{l+j}| with |s| = 1 stays below 3 max|c|, intermediates
    # included, so this one test shows every value finite (NaN fails it); a
    # set that fails it goes through the checks and errors of the constructor
    if float(base.max()) <= _ADOPT_MAX:
        return MeasurementSet._adopt(length, jumps, config.angles, base, grid)
    return MeasurementSet(length, jumps, config.angles, base, grid)


def _runs(nonzero: np.ndarray, jumps: int) -> tuple[np.ndarray, np.ndarray]:
    """True positions ``alive`` and ``bounds``: component i is ``alive[bounds[i]:bounds[i+1]]``."""
    alive = nonzero.nonzero()[0]
    cuts = (alive[1:] - alive[:-1] > jumps + 1).nonzero()[0] + 1
    return alive, np.concatenate(([0], cuts, [alive.size]))


def _chain_phases(ms: MeasurementSet, chain: Sequence[int]) -> np.ndarray:
    """Unit phases (or signs) along a chain, anchored at its first index.

    Consecutive chain indices (l, m) form the aligned edge of offset
    ``j = m - l``; its polarization product ``conj(c_l) c_m`` carries the
    phase step from l to m, and the steps accumulate by cumulative product.
    All edges are gathered from the grid and solved at once: the set's
    family count picks :func:`recover_phases` for two families and
    :func:`recover_signs`, with ``ms.angles.real_sign``, for one. Both raise
    the error of the first failing edge in chain order. Two families are
    polarized as the conjugate pair ``(conj(c_l), conj(c_m))`` under
    ``ms.angles`` and the phases conjugated back, bit for bit what the
    negated pair ``(-alpha1, -alpha2)`` gives on ``(c_l, c_m)``: negating a
    pair negates exactly the second row of its unmixing matrix.
    """
    steps = np.ones(len(chain), dtype=complex)
    if len(chain) > 1:
        index = np.asarray(chain)
        l = index[:-1]
        cells = ms.grid[index[1:] - l - 1, :, l].T
        mags = ms.base[index]
        if ms.has_two_angles:
            steps[1:] = recover_phases(mags[:-1], mags[1:], cells, ms.angles)
            # 0 - sin, not -sin: an exactly cancelled sine stays +0
            np.subtract(0.0, steps.imag, out=steps.imag)
        else:
            steps[1:] = recover_signs(mags[:-1], mags[1:], cells[0], ms.angles.real_sign)
    return np.multiply.accumulate(steps)


def recover_full_spark(
    ms: MeasurementSet, frame: DynamicalFrame, config: MeasurementConfig
) -> RecoveryResult:
    """Zero-tolerant recovery over a full-spark frame.

    The signal is the least-squares solution of the phased chain rows and
    the zero-pinned rows (on dense data, all L rows). It matches the true
    signal up to one global phase; a real-mode set, with its single sign
    family, gives a real signal over a real frame up to one global sign.
    A base magnitude at or below ``max(zero_tol, MAGNITUDE_RTOL)`` times the
    largest is a zero, classified once; any number of zeros goes through the
    one row solve. The result is Recovered when the longest chain and the
    zeros give at least ``dim`` rows, and Failed, with the minimum-norm
    solution of those rows as a guess, when they do not.
    The caller is responsible for the full-spark property (certify it with
    :func:`dynphase.frames.full_spark_criterion` or
    :func:`dynphase.frames.analyze`); a rank-deficient subframe system is
    reported as ``SingularMatrixError`` when the assumption fails.
    Scaling the set by ``2^k`` scales the estimate and the residual by
    ``2^k``: a set whose largest base magnitude lies so far from 1 that
    products of magnitudes would over- or underflow is recovered in units of
    ``2^e``, e being that magnitude's ``frexp`` exponent.
    """
    if ms.length != frame.length:
        raise InconsistentDataError(
            f"measurement set has L={ms.length}, frame has L={frame.length}"
        )
    top = float(ms.base.max())
    e = math.frexp(top)[1]
    if abs(e) > _UNSCALED_EXPONENT:
        grid = np.ldexp(ms.grid, -e)
        unit = MeasurementSet._adopt(ms.length, ms.jumps, ms.angles, np.ldexp(ms.base, -e), grid)
        r = recover_full_spark(unit, frame, config)
        estimate = np.ldexp(r.estimate.view(float), e).view(complex)
        residual = float(np.ldexp(r.residual, e))
        return RecoveryResult._adopt(estimate, r.status, r.used_indices, r.component_size, residual)
    base = ms.base
    d = frame.dim
    # above MAGNITUDE_RTOL of the largest, every chain edge clears polarization's pair floor
    nonzero = base > max(config.zero_tol, MAGNITUDE_RTOL) * top
    zeros = (~nonzero).nonzero()[0]
    alive, bounds = _runs(nonzero, ms.jumps)
    # argmax keeps the first longest run, so ties go to the lowest indices
    longest = (bounds[1:] - bounds[:-1]).argmax()
    chain = alive[bounds[longest] : bounds[longest + 1]]
    rows = np.concatenate((chain, zeros))
    rhs = np.zeros(rows.size, dtype=complex)
    rhs[: chain.size] = base[chain] * _chain_phases(ms, chain)
    estimate, rank = frame._solve_rows(rows, rhs)
    if rank < d <= rows.size:
        raise SingularMatrixError(
            f"selected frame rows have rank {rank} < {d}; the orbit lacks full spark"
        )
    residual = float(np.linalg.norm(np.abs(frame.coefficients(estimate)) - base))
    status = RecoveryStatus.RECOVERED if rows.size >= d else RecoveryStatus.FAILED
    return RecoveryResult._adopt(estimate, status, tuple(chain.tolist()), rows.size, residual)


def min_length(dim: int, jumps: int = 0) -> int:
    """Smallest orbit length guaranteeing zero-tolerant recovery.

    ``ceil(dim^2 / 4 + dim / 2)`` without jumps, and
    ``ceil((dim+1)^2 / (4 (jumps+1)) + dim)`` with them. ``jumps`` must stay
    in ``0 .. dim-2`` (0 is allowed for dim = 1). Both sizes must be integers.
    """
    dim, jumps = operator.index(dim), operator.index(jumps)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if jumps < 0 or jumps > max(0, dim - 2):
        raise ValueError(f"jumps must lie in 0..{max(0, dim - 2)} for dim={dim}, got {jumps}")
    if jumps == 0:
        return (dim * dim + 2 * dim + 3) // 4
    denom = 4 * (jumps + 1)
    return ((dim + 1) ** 2 + denom - 1) // denom + dim


def global_phase_distance(x, y) -> float:
    """``min over theta of || x - exp(1j theta) y ||``, the phase-free metric.

    Evaluated as the norm of the difference at the optimal phase, which keeps
    full precision for tiny distances; the expanded form
    ``|x|^2 + |y|^2 - 2|<x, y>|`` cancels to about sqrt(eps) * |x|.
    """
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatchError(f"vectors have dims {x.size} vs {y.size}")
    inner = complex(np.vdot(y, x))
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(x - phase * y))
