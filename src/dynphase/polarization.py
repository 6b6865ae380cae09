"""Relative-phase recovery from magnitude-only data.

Knowing ``|z1|``, ``|z2|``, and the two shifted magnitudes
``|z1 + exp(1j*a1) z2|`` and ``|z1 + exp(1j*a2) z2|`` determines the product
``conj(z1) * z2`` for any nonzero z1, z2, provided ``a1 - a2`` is not a
multiple of pi. Each shifted magnitude yields
``r = cos(a) cos(D) - sin(a) sin(D)`` with ``D`` the relative phase; the two
equations form a 2x2 linear system whose determinant is ``sin(a1 - a2)``.

The real-line variant needs a single shift ``|z1 + s z2|`` with ``s = +-1``,
and the roots-of-unity variant averages K >= 3 shifted magnitudes against the
K-th roots of unity with no linear solve at all.

:func:`recover_phases` and :func:`recover_signs` apply the formulas of
:func:`recover_product` and :func:`recover_product_real` to many pairs at
once, with the same checks and error messages.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InconsistentDataError, ZeroMagnitudeError

#: Smallest admissible |sin(a1 - a2)|.
ANGLE_TOL = 1e-8

#: How far |r| may overshoot 1 before the data is declared inconsistent.
CLAMP_TOL = 1e-6

#: Relative floor below which a magnitude counts as zero.
MAGNITUDE_RTOL = 1e-12


@dataclass(frozen=True)
class PolarizationAngles:
    """An admissible shift-angle pair: ``alpha1 - alpha2`` not in ``pi * Z``."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        a1, a2 = float(self.alpha1), float(self.alpha2)
        if not (math.isfinite(a1) and math.isfinite(a2)):
            raise ValueError("angles must be finite")
        if abs(math.sin(a1 - a2)) <= ANGLE_TOL:
            raise ValueError(
                f"alpha1 - alpha2 = {a1 - a2:.6g} is (nearly) a multiple of pi"
            )
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)

    def negated(self) -> "PolarizationAngles":
        """The pair (-alpha1, -alpha2); admissibility is preserved."""
        return PolarizationAngles(-self.alpha1, -self.alpha2)


@dataclass(frozen=True)
class PolarizationData:
    """The four magnitudes |z1|, |z2|, |z1 + e^{i a1} z2|, |z1 + e^{i a2} z2|."""

    m1: float
    m2: float
    mplus1: float
    mplus2: float

    def __post_init__(self):
        for name in ("m1", "m2", "mplus1", "mplus2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be a finite nonnegative real, got {v}")
            object.__setattr__(self, name, v)


def _zero_magnitudes(m1: float, m2: float) -> ZeroMagnitudeError:
    return ZeroMagnitudeError(f"base magnitudes ({m1:.3g}, {m2:.3g}) too close to zero")


def _cosine_outside(r: float) -> InconsistentDataError:
    return InconsistentDataError(f"shifted magnitude implies cos term {r:.6g} outside [-1, 1]")


_VANISHING = "extracted phase direction has vanishing length"


def _extract_cosine(mplus: float, m1: float, m2: float, clamp_tol: float) -> float:
    r = (mplus**2 - m1**2 - m2**2) / (2.0 * m1 * m2)
    if abs(r) > 1.0 + clamp_tol:
        raise _cosine_outside(r)
    return min(1.0, max(-1.0, r))


def recover_product(
    data: PolarizationData,
    angles: PolarizationAngles,
    clamp_tol: float = CLAMP_TOL,
    zero_tol: float = MAGNITUDE_RTOL,
) -> complex:
    """The product ``conj(z1) * z2`` from the four magnitudes.

    Raises ``ZeroMagnitudeError`` when either base magnitude is numerically
    zero (the relative phase is then undefined and the caller must route
    around this pair), and ``InconsistentDataError`` when the shifted
    magnitudes cannot come from any phase.
    """
    m1, m2 = data.m1, data.m2
    floor = zero_tol * max(m1, m2)
    if m1 <= floor or m2 <= floor:
        raise _zero_magnitudes(m1, m2)
    r1 = _extract_cosine(data.mplus1, m1, m2, clamp_tol)
    r2 = _extract_cosine(data.mplus2, m1, m2, clamp_tol)
    det = math.sin(angles.alpha1 - angles.alpha2)
    cos_d = (-r1 * math.sin(angles.alpha2) + r2 * math.sin(angles.alpha1)) / det
    sin_d = (r2 * math.cos(angles.alpha1) - r1 * math.cos(angles.alpha2)) / det
    norm = math.hypot(cos_d, sin_d)
    if norm < 1e-12:
        raise InconsistentDataError(_VANISHING)
    # project back onto the unit circle; roundoff pushes (cos, sin) slightly off it
    return m1 * m2 * complex(cos_d / norm, sin_d / norm)


def _nonzero_prefix(m1: np.ndarray, m2: np.ndarray, zero_tol: float) -> int:
    """The number of leading pairs whose base magnitudes are both nonzero."""
    zero = np.minimum(m1, m2) <= zero_tol * np.maximum(m1, m2)
    first = zero.argmax()
    return int(first) if zero[first] else zero.size


def recover_phases(
    m1: np.ndarray,
    m2: np.ndarray,
    shifted: np.ndarray,
    angles: PolarizationAngles,
    clamp_tol: float = CLAMP_TOL,
    zero_tol: float = MAGNITUDE_RTOL,
) -> np.ndarray:
    """The unit phases ``conj(z1) z2 / |z1 z2|`` of n pairs at once.

    ``m1`` and ``m2`` hold the n base magnitude pairs and ``shifted`` the
    ``(2, n)`` shifted magnitudes, row k taken with angle ``alpha_k``; all
    must be finite and nonnegative. The formula, checks and messages are
    those of :func:`recover_product`. When several pairs fail, the error is
    that of the first failing pair.
    """
    if m1.size == 0:
        return np.ones(0, dtype=complex)
    stop = _nonzero_prefix(m1, m2, zero_tol)
    if stop < m1.size:
        # an inconsistent pair before the zero one is reported first
        recover_phases(m1[:stop], m2[:stop], shifted[:, :stop], angles, clamp_tol, zero_tol)
        raise _zero_magnitudes(m1[stop], m2[stop])
    # twice the cosine terms (r1, r2); scaling by 2 is exact in binary
    twice = (shifted * shifted - m1 * m1 - m2 * m2) / (m1 * m2)
    over = abs(twice) > 2.0 * (1.0 + clamp_tol)
    # the inverse of recover_product's 2x2 system, taking twice (r1, r2) to (cos D, sin D)
    a1, a2 = angles.alpha1, angles.alpha2
    det = 2.0 * math.sin(a1 - a2)
    unmix = np.array(
        [[-math.sin(a2) / det, math.sin(a1) / det], [-math.cos(a2) / det, math.cos(a1) / det]]
    )
    direction = unmix @ np.minimum(np.maximum(twice, -2.0), 2.0)
    norm = np.hypot(direction[0], direction[1])
    bad = over[0] | over[1] | (norm < 1e-12)
    first = bad.argmax()
    if bad[first]:
        if not (over[0, first] or over[1, first]):
            raise InconsistentDataError(_VANISHING)
        raise _cosine_outside(0.5 * twice[0 if over[0, first] else 1, first])
    phases = np.empty(m1.size, dtype=complex)
    # project back onto the unit circle; roundoff pushes (cos, sin) slightly off it
    np.divide(direction, norm, out=phases.view(float).reshape(-1, 2).T)
    return phases


def recover_product_real(
    m1: float,
    m2: float,
    mplus: float,
    sign: int,
    zero_tol: float = MAGNITUDE_RTOL,
) -> float:
    """The product ``z1 * z2`` of nonzero reals from |z1|, |z2|, |z1 + sign*z2|."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    for name, v in (("m1", m1), ("m2", m2), ("mplus", mplus)):
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be a finite nonnegative real, got {v}")
    floor = zero_tol * max(m1, m2)
    if m1 <= floor or m2 <= floor:
        raise _zero_magnitudes(m1, m2)
    return (mplus**2 - m1**2 - m2**2) / (2.0 * sign)


def recover_signs(
    m1: np.ndarray,
    m2: np.ndarray,
    shifted: np.ndarray,
    sign: int,
    zero_tol: float = MAGNITUDE_RTOL,
) -> np.ndarray:
    """The signs of the products ``z1 * z2`` of n pairs of nonzero reals at once.

    ``shifted`` holds ``|z1 + sign*z2|`` per pair; all magnitudes must be
    finite and nonnegative. A sign is +1 where :func:`recover_product_real`
    returns a product >= 0 and -1 elsewhere; a zero base magnitude raises its
    error, for the first such pair.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    if m1.size == 0:
        return np.ones(0)
    stop = _nonzero_prefix(m1, m2, zero_tol)
    if stop < m1.size:
        raise _zero_magnitudes(m1[stop], m2[stop])
    excess = shifted * shifted - m1 * m1 - m2 * m2
    return np.where(excess / (2.0 * sign) >= 0.0, 1.0, -1.0)


def recover_product_roots_of_unity(magnitudes) -> complex:
    """The product ``conj(z1) * z2`` from K >= 3 root-of-unity shifted magnitudes.

    ``magnitudes[k]`` must be ``|z1 + w^(-k) z2|`` for ``w = exp(2j pi / K)``.
    The closed form ``(1/K) * sum_k w^k * magnitudes[k]**2`` needs no linear
    solve and is total: zeros in z1 or z2 simply propagate to the product.
    """
    mags = [float(v) for v in magnitudes]
    K = len(mags)
    if K < 3:
        raise ValueError(f"need at least 3 magnitudes, got {K}")
    for v in mags:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"magnitudes must be finite nonnegative reals, got {v}")
    root = cmath.exp(2j * math.pi / K)
    return sum(root**k * mags[k] ** 2 for k in range(K)) / K
