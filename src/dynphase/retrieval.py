"""Phase retrieval from phaseless dynamical samples.

``measure`` simulates the magnitude data for a signal x over a dynamical
frame: the base magnitudes ``|<x, A^l phi>|`` plus the aligned magnitudes
``|<x, A^l (phi + exp(1j a_k) A^j phi)>|`` for offsets ``j = 1..jumps+1``.
Under the conjugate-linear-second-argument inner product the aligned value
expands to ``|c_l + exp(-1j a_k) c_{l+j}|`` with ``c_l = <x, A^l phi>``, so
relative phases are recovered by polarization with the NEGATED angle pair.

A :class:`MeasurementSet` keeps the aligned magnitudes in one dense float
grid, ``grid[j - 1, k - 1, l]`` for offset j, angle family k and index l,
of shape ``(jumps + 1, K, L - 1)`` with K = 2 (K = 1 in real mode) and NaN
in the cells past ``L - j``. ``measure`` fills it with one array expression
per offset, and the polarization steps of a chain are solved for all of its
edges at once.

Recovery chains phases over the indices whose base magnitude is nonzero. A
component is a maximal run of nonzero indices whose gaps stay within
``jumps + 1``; phases chain along its consecutive indices (l, m), each step
taken from the polarization product ``conj(c_l) c_m`` of the aligned family
``j = m - l``. Indices classified as zero still contribute: each pins the
linear constraint ``<x, A^l phi> = 0``. A connected chain of size s together
with m zero indices gives s + m independent rows over a full-spark frame, so
recovery needs a chain of size ``dim - m`` rather than ``dim``. With at least
``dim`` zeros the signal is identically zero.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InconsistentDataError,
    SingularMatrixError,
    ZeroMagnitudeError,
)
from .frames import DynamicalFrame
from .polarization import PolarizationAngles, recover_phases, recover_signs
from .validation import as_vector, frozen_copy

DEFAULT_ZERO_TOL = 1e-9

#: Relative floor used when re-thresholding borderline magnitudes for a
#: partial-chain rescue; sits well below DEFAULT_ZERO_TOL and well above
#: double-precision noise on honest zeros.
RELAXED_ZERO_FLOOR = 1e-13


def default_angles() -> PolarizationAngles:
    """The best-conditioned admissible pair: |sin(a1 - a2)| = 1."""
    return PolarizationAngles(0.0, math.pi / 2.0)


@dataclass(frozen=True)
class MeasurementConfig:
    """How measurements are taken and interpreted.

    ``jumps`` is the number of consecutive zeros a chain edge may skip;
    aligned offsets run ``j = 1..jumps+1``. ``zero_tol`` classifies a base
    magnitude as zero relative to the largest one. In ``real_mode`` a single
    aligned family with a real shift sign replaces the two-angle family.
    """

    angles: PolarizationAngles = field(default_factory=default_angles)
    jumps: int = 0
    zero_tol: float = DEFAULT_ZERO_TOL
    real_mode: bool = False

    def __post_init__(self):
        if self.jumps < 0:
            raise ValueError("jumps must be >= 0")
        if not (0.0 < self.zero_tol < 1.0):
            raise ValueError("zero_tol must lie strictly between 0 and 1")

    @property
    def real_sign(self) -> int:
        """The real shift sign exp(1j * alpha1), which must be +-1."""
        c, s = math.cos(self.angles.alpha1), math.sin(self.angles.alpha1)
        if abs(s) > 1e-9:
            raise ValueError("real mode needs alpha1 to be a multiple of pi")
        return 1 if c > 0 else -1


class _AlignedView(Mapping):
    """Read-only ``(l, j, k) -> magnitude`` view over an aligned grid."""

    __slots__ = ("_grid",)

    def __init__(self, grid: np.ndarray):
        self._grid = grid

    def __getitem__(self, key) -> float:
        offsets, families, width = self._grid.shape
        try:
            l, j, k = (operator.index(i) for i in key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if 1 <= j <= offsets and 1 <= k <= families and 0 <= l <= width - j:
            return float(self._grid[j - 1, k - 1, l])
        raise KeyError(key)

    def __iter__(self):
        offsets, families, width = self._grid.shape
        for l in range(width):
            for j in range(1, min(offsets, width - l) + 1):
                for k in range(1, families + 1):
                    yield (l, j, k)

    def __len__(self) -> int:
        offsets, families, width = self._grid.shape
        return families * sum(max(0, width + 1 - j) for j in range(1, offsets + 1))


def _finite_nonnegative(values: np.ndarray) -> np.ndarray:
    # NaN fails both comparisons, +inf the second
    return (values >= 0.0) & (values < math.inf)


def _grid_from_dict(aligned: Mapping, length: int, jumps: int) -> np.ndarray:
    """The grid of a complete ``{(l, j, k): value}`` dict."""
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
    missing = [key for key, v in _AlignedView(grid).items() if math.isnan(v)]
    if missing:
        raise ValueError(f"aligned grid incomplete: missing {missing[0]}")
    if outside:
        raise ValueError(f"aligned holds {outside} key(s) outside the grid")
    return grid


@dataclass(frozen=True)
class MeasurementSet:
    """Base and aligned magnitudes of one signal over one frame.

    ``grid[j - 1, k - 1, l]`` is the aligned magnitude of index l, offset j
    and angle family k. The grid has shape ``(jumps + 1, K, length - 1)``,
    with K = 2 for the two-angle families and K = 1 for real mode's single
    shift; cells with ``l >= length - j`` do not exist and hold NaN.

    ``aligned`` is given either as that array (its padding is ignored) or as
    a complete ``{(l, j, k): value}`` dict, and is stored as a read-only
    mapping view over the grid, which iterates in sorted key order.
    """

    length: int
    jumps: int
    angles: PolarizationAngles
    base: np.ndarray
    aligned: Mapping[tuple[int, int, int], float] = field(repr=False)
    grid: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        length, jumps = int(self.length), int(self.jumps)
        base = np.array(self.base, dtype=float)
        if base.shape != (length,):
            raise DimensionMismatchError(
                f"base must hold {length} values, got shape {base.shape}"
            )
        if jumps < 0:
            raise ValueError("jumps must be >= 0")
        if isinstance(self.aligned, np.ndarray):
            grid = np.array(self.aligned, dtype=float)
            shape = (jumps + 1, grid.shape[1] if grid.ndim == 3 else 0, max(length - 1, 0))
            if grid.shape != shape or shape[1] not in (1, 2):
                raise DimensionMismatchError(
                    f"aligned grid must have shape ({jumps + 1}, 1 or 2, {shape[2]}), "
                    f"got {grid.shape}"
                )
        else:
            grid = _grid_from_dict(self.aligned, length, jumps)
        cells = 0
        for j in range(1, jumps + 2):
            grid[j - 1, :, max(length - j, 0) :] = np.nan
            cells += max(length - j, 0)
        # one test for every value: only the NaN padding may fail it
        passed = np.count_nonzero(_finite_nonnegative(base)) + np.count_nonzero(
            _finite_nonnegative(grid)
        )
        if passed != length + grid.shape[1] * cells:
            what = "aligned" if _finite_nonnegative(base).all() else "base"
            raise ValueError(f"{what} magnitudes must be finite and nonnegative")
        base.setflags(write=False)
        grid.setflags(write=False)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "aligned", _AlignedView(grid))

    @property
    def has_two_angles(self) -> bool:
        return self.grid.shape[1] == 2


class RecoveryStatus(Enum):
    RECOVERED = "Recovered"
    PARTIAL = "RecoveredPartialChain"
    FAILED = "Failed"


@dataclass(frozen=True)
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
        object.__setattr__(self, "used_indices", tuple(int(i) for i in self.used_indices))


def measure(x, frame: DynamicalFrame, config: MeasurementConfig) -> MeasurementSet:
    """Simulate the phaseless measurement set for a known signal."""
    x = as_vector(x, "x")
    if x.size != frame.dim:
        raise DimensionMismatchError(f"x has dim {x.size}, frame dim is {frame.dim}")
    if config.jumps > max(0, frame.dim - 2):
        raise ValueError(
            f"jumps={config.jumps} exceeds the admissible maximum {max(0, frame.dim - 2)}"
        )
    coeffs = frame.coefficients(x)
    length = frame.length
    if config.real_mode:
        shifts = np.array([complex(config.real_sign)])
    else:
        # cmath.exp as in the scalar formula, so the shifts are bit-identical to it
        angles = config.angles
        shifts = np.array([cmath.exp(-1j * angles.alpha1), cmath.exp(-1j * angles.alpha2)])
    # MeasurementSet pads the cells past length - j
    grid = np.empty((config.jumps + 1, shifts.size, max(length - 1, 0)))
    for j in range(1, min(config.jumps + 1, length - 1) + 1):
        z = coeffs[: length - j] + shifts[:, None] * coeffs[j:]
        # hypot, not np.abs: the vectorized complex abs can differ from the
        # scalar abs by one ulp, which moves borderline recoveries
        grid[j - 1, :, : length - j] = np.hypot(z.real, z.imag)
    return MeasurementSet(length, config.jumps, config.angles, np.abs(coeffs), grid)


def _check_consistency(ms: MeasurementSet, frame: DynamicalFrame, config: MeasurementConfig) -> None:
    if ms.length != frame.length:
        raise InconsistentDataError(
            f"measurement set has L={ms.length}, frame has L={frame.length}"
        )
    if ms.jumps != config.jumps:
        raise InconsistentDataError(f"jumps mismatch: set has {ms.jumps}, config has {config.jumps}")
    if (
        abs(ms.angles.alpha1 - config.angles.alpha1) > 1e-12
        or abs(ms.angles.alpha2 - config.angles.alpha2) > 1e-12
    ):
        raise InconsistentDataError("angle mismatch between measurement set and config")


def chain_components(nonzero: Sequence[bool], jumps: int) -> list[list[int]]:
    """Chain components over the True positions of a boolean mask.

    Positions l < m join when both are True and ``m - l <= jumps + 1``; with
    a complete aligned grid this is the whole edge rule of the recovery
    chain. No edge can cross a gap wider than ``jumps + 1`` between
    consecutive True positions, so the components are exactly the maximal
    runs whose gaps stay within that bound, in increasing order.
    """
    alive = np.flatnonzero(np.asarray(nonzero, dtype=bool))
    if alive.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(alive) > jumps + 1) + 1
    return [run.tolist() for run in np.split(alive, cuts)]


def _chain_phases(ms: MeasurementSet, chain: Sequence[int], real_sign: int | None) -> np.ndarray:
    """Unit phases (or signs) along a chain, anchored at its first index.

    Consecutive chain indices (l, m) form the aligned edge of offset
    ``j = m - l``; its polarization product ``conj(c_l) c_m`` carries the
    phase step from l to m, and the steps accumulate by cumulative product.
    All edges are gathered from the grid and solved at once by
    :func:`recover_phases` (:func:`recover_signs` in real mode), which raise
    the error of the first failing edge in chain order.
    """
    steps = np.ones(len(chain), dtype=complex)
    if len(chain) > 1:
        index = np.asarray(chain)
        l = index[:-1]
        cells = ms.grid[index[1:] - l - 1, :, l].T
        mags = ms.base[index]
        if real_sign is None:
            steps[1:] = recover_phases(mags[:-1], mags[1:], cells, ms.angles.negated())
        else:
            steps[1:] = recover_signs(mags[:-1], mags[1:], cells[0], real_sign)
    return np.multiply.accumulate(steps)


def _solve_rows(
    frame: DynamicalFrame, indices: list[int], rhs: np.ndarray, require_full_rank: bool
) -> np.ndarray:
    rows = frame.synthesis()[:, indices].conj().T
    solution, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if require_full_rank and rank < frame.dim:
        raise SingularMatrixError(
            f"selected frame rows have rank {rank} < {frame.dim}; the orbit lacks full spark"
        )
    return solution


def _remeasure_residual(frame: DynamicalFrame, estimate: np.ndarray, base: np.ndarray) -> float:
    return float(np.linalg.norm(np.abs(frame.coefficients(estimate)) - base))


def recover_generic(
    ms: MeasurementSet, frame: DynamicalFrame, config: MeasurementConfig
) -> RecoveryResult:
    """Recovery along the dense chain; every base magnitude must be nonzero.

    Phases are chained index by index through offset-1 polarization, the
    first coefficient's phase is fixed to zero, and the signal is the
    least-squares solution of all L phased frame rows, the same solve as
    :func:`recover_full_spark`, whose result it equals on dense data. The
    result matches the true signal up to one global phase. A zero base
    magnitude breaks the chain and raises ``ZeroMagnitudeError``; route such
    data to :func:`recover_full_spark`.
    """
    _check_consistency(ms, frame, config)
    base = ms.base
    scale = float(base.max()) if base.size else 0.0
    if scale <= 0.0 or np.any(base <= config.zero_tol * scale):
        raise ZeroMagnitudeError(
            "a base magnitude is numerically zero; the dense chain is broken "
            "(use recover_full_spark)"
        )
    if ms.length > 1 and not ms.has_two_angles:
        raise InconsistentDataError("measurement set lacks the second aligned angle family")
    return _recover_by_chain(ms, frame, config, real_sign=None)


def _recover_by_chain(
    ms: MeasurementSet,
    frame: DynamicalFrame,
    config: MeasurementConfig,
    real_sign: int | None,
) -> RecoveryResult:
    base = ms.base
    d = frame.dim
    scale = float(base.max())

    def attempt(zero_tol: float) -> tuple[np.ndarray, list[int], list[int]]:
        nonzero = base > zero_tol * scale
        # max keeps the first longest run, so ties go to the lowest indices
        best = max(chain_components(nonzero, config.jumps), key=len, default=[])
        return nonzero, np.flatnonzero(~nonzero).tolist(), best

    def result(status: RecoveryStatus, chain: list[int], zeros: list[int]) -> RecoveryResult:
        rhs = np.zeros(len(chain) + len(zeros), dtype=complex)
        rhs[: len(chain)] = base[chain] * _chain_phases(ms, chain, real_sign)
        estimate = _solve_rows(
            frame, chain + zeros, rhs, require_full_rank=status is not RecoveryStatus.FAILED
        )
        return RecoveryResult(
            estimate,
            status,
            tuple(chain),
            len(chain) + len(zeros),
            _remeasure_residual(frame, estimate, base),
        )

    nonzero, zeros, best = attempt(config.zero_tol)
    # at least d zero coefficients over a full-spark frame pin the signal to 0
    if len(zeros) >= d:
        estimate = np.zeros(d, dtype=complex)
        return RecoveryResult(
            estimate,
            RecoveryStatus.RECOVERED,
            (),
            len(zeros),
            _remeasure_residual(frame, estimate, base),
        )
    if len(best) + len(zeros) >= d:
        return result(RecoveryStatus.RECOVERED, best, zeros)

    # Rescue pass: magnitudes between the machine floor and zero_tol may be
    # honest small coefficients; reclassifying them can bridge chain gaps.
    # Polarizing such a magnitude may still fail, which ends in Failed below.
    relaxed, rzeros, rbest = attempt(RELAXED_ZERO_FLOOR)
    if not np.array_equal(relaxed, nonzero) and len(rbest) + len(rzeros) >= d:
        try:
            return result(RecoveryStatus.PARTIAL, rbest, rzeros)
        except (ZeroMagnitudeError, InconsistentDataError):
            pass

    # no chain reaches far enough: report failure with a minimum-norm guess
    return result(RecoveryStatus.FAILED, best, zeros)


def recover_full_spark(
    ms: MeasurementSet, frame: DynamicalFrame, config: MeasurementConfig
) -> RecoveryResult:
    """Zero-tolerant recovery over a full-spark frame.

    The caller is responsible for the full-spark property (certify it with
    :func:`dynphase.frames.full_spark_criterion` or
    :func:`dynphase.frames.analyze`); a rank-deficient subframe system is
    reported as ``SingularMatrixError`` when the assumption fails.
    """
    _check_consistency(ms, frame, config)
    if ms.length > 1 and not ms.has_two_angles:
        raise InconsistentDataError("measurement set lacks the second aligned angle family")
    return _recover_by_chain(ms, frame, config, real_sign=None)


def recover_real(
    ms: MeasurementSet, frame: DynamicalFrame, config: MeasurementConfig
) -> RecoveryResult:
    """Sign recovery for real frames and signals from single-shift data.

    Runs the same chain machinery with real polarization products; the
    result matches the true signal up to one global sign.
    """
    if not config.real_mode:
        raise ValueError("recover_real requires config.real_mode")
    _check_consistency(ms, frame, config)
    return _recover_by_chain(ms, frame, config, real_sign=config.real_sign)


def min_length(dim: int, jumps: int = 0) -> int:
    """Smallest orbit length guaranteeing zero-tolerant recovery.

    ``ceil(dim^2 / 4 + dim / 2)`` without jumps, and
    ``ceil((dim+1)^2 / (4 (jumps+1)) + dim)`` with them. ``jumps`` must stay
    in ``0 .. dim-2`` (0 is allowed for dim = 1).
    """
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
