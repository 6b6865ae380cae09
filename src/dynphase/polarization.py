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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def _extract_cosine(mplus: float, m1: float, m2: float, clamp_tol: float) -> float:
    r = (mplus**2 - m1**2 - m2**2) / (2.0 * m1 * m2)
    if abs(r) > 1.0 + clamp_tol:
        raise InconsistentDataError(
            f"shifted magnitude implies cos term {r:.6g} outside [-1, 1]"
        )
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
        raise ZeroMagnitudeError(f"base magnitudes ({m1:.3g}, {m2:.3g}) too close to zero")
    r1 = _extract_cosine(data.mplus1, m1, m2, clamp_tol)
    r2 = _extract_cosine(data.mplus2, m1, m2, clamp_tol)
    det = math.sin(angles.alpha1 - angles.alpha2)
    cos_d = (-r1 * math.sin(angles.alpha2) + r2 * math.sin(angles.alpha1)) / det
    sin_d = (r2 * math.cos(angles.alpha1) - r1 * math.cos(angles.alpha2)) / det
    norm = math.hypot(cos_d, sin_d)
    if norm < 1e-12:
        raise InconsistentDataError("extracted phase direction has vanishing length")
    # project back onto the unit circle; roundoff pushes (cos, sin) slightly off it
    return m1 * m2 * complex(cos_d / norm, sin_d / norm)


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
        raise ZeroMagnitudeError(f"base magnitudes ({m1:.3g}, {m2:.3g}) too close to zero")
    return (mplus**2 - m1**2 - m2**2) / (2.0 * sign)


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
