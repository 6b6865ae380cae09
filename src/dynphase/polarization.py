"""Relative-phase recovery from magnitude-only data.

Knowing ``|z1|``, ``|z2|``, and the two shifted magnitudes
``|z1 + exp(1j*a1) z2|`` and ``|z1 + exp(1j*a2) z2|`` determines the product
``conj(z1) * z2`` for any nonzero z1, z2, provided ``a1 - a2`` is not a
multiple of pi. Each shifted magnitude yields
``r = cos(a) cos(D) - sin(a) sin(D)`` with ``D`` the relative phase; the two
equations form a 2x2 linear system whose determinant is ``sin(a1 - a2)``.

The real-line variant needs a single shift ``|z1 + s z2|`` with ``s = +-1``.

:func:`recover_phases` and :func:`recover_signs` solve many pairs at once;
every formula, floor and check is written there once. One validity mask per
batch (zero base magnitude, cosine term out of range, vanishing direction)
decides which pair fails first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

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
    """An admissible shift-angle pair: ``alpha1 - alpha2`` not in ``pi * Z``.

    Keeps :func:`recover_phases`' unmixing matrix and the shift factors of
    ``measure``; eq and hash ignore both.
    """

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

    @cached_property
    def _unmix(self) -> np.ndarray:
        """The inverse of the 2x2 system, taking twice (r1, r2) to (cos D, sin D)."""
        a1, a2 = self.alpha1, self.alpha2
        det = 2.0 * math.sin(a1 - a2)
        unmix = np.array([[-math.sin(a2), math.sin(a1)], [-math.cos(a2), math.cos(a1)]]) / det
        unmix.setflags(write=False)
        return unmix

    @cached_property
    def _shifts(self) -> np.ndarray:
        """The aligned shift factors ``exp(-1j alpha_k)`` that ``measure`` applies."""
        # cmath.exp as in tests/oracles.measure_loop, so the shifts are bit-identical
        # to the loop that the == test compares against
        shifts = np.array([cmath.exp(-1j * self.alpha1), cmath.exp(-1j * self.alpha2)])
        shifts.setflags(write=False)
        return shifts

    @property
    def real_sign(self) -> int:
        """The real shift sign exp(1j * alpha1) of real mode, which must be +-1."""
        c, s = math.cos(self.alpha1), math.sin(self.alpha1)
        if abs(s) > 1e-9:
            raise ValueError("real mode needs alpha1 to be a multiple of pi")
        return 1 if c > 0 else -1


def _zero_magnitudes(m1: float, m2: float) -> ZeroMagnitudeError:
    return ZeroMagnitudeError(f"base magnitudes ({m1:.3g}, {m2:.3g}) too close to zero")


def _zero_pairs(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The mask of pairs whose base magnitude is numerically zero."""
    return np.minimum(m1, m2) <= MAGNITUDE_RTOL * np.maximum(m1, m2)


def recover_phases(
    m1: np.ndarray,
    m2: np.ndarray,
    shifted: np.ndarray,
    angles: PolarizationAngles,
) -> np.ndarray:
    """The unit phases ``conj(z1) z2 / |z1 z2|`` of n pairs at once.

    ``m1`` and ``m2`` hold the n base magnitude pairs and ``shifted`` the
    ``(2, n)`` shifted magnitudes, row k taken with angle ``alpha_k``; all
    must be finite and nonnegative. A pair whose base magnitude is
    numerically zero raises ``ZeroMagnitudeError``; shifted magnitudes that
    no phase can produce raise ``InconsistentDataError``. When several pairs
    fail, the error is that of the first failing pair.
    """
    if m1.size == 0:
        return np.ones(0, dtype=complex)
    zero = _zero_pairs(m1, m2)
    moduli = m1 * m2
    # a zero pair is divided by 1, never by its own |z1 z2|: the mask below refuses it
    moduli[zero] = 1.0
    # twice the cosine terms (r1, r2); scaling by 2 is exact in binary
    twice = (shifted * shifted - m1 * m1 - m2 * m2) / moduli
    over = abs(twice) > 2.0 * (1.0 + CLAMP_TOL)
    direction = angles._unmix @ np.minimum(np.maximum(twice, -2.0), 2.0)
    norm = np.hypot(direction[0], direction[1])
    # a NaN direction (from a product that over- or underflowed) fails the length test too
    bad = zero | over[0] | over[1] | ~(norm >= 1e-12)
    first = bad.argmax()
    if bad[first]:
        if zero[first]:
            raise _zero_magnitudes(m1[first], m2[first])
        if not (over[0, first] or over[1, first]):
            raise InconsistentDataError("extracted phase direction has vanishing length")
        r = 0.5 * twice[0 if over[0, first] else 1, first]
        raise InconsistentDataError(f"shifted magnitude implies cos term {r:.6g} outside [-1, 1]")
    phases = np.empty(m1.size, dtype=complex)
    # project back onto the unit circle; roundoff pushes (cos, sin) slightly off it
    np.divide(direction, norm, out=phases.view(float).reshape(-1, 2).T)
    return phases


def recover_signs(m1: np.ndarray, m2: np.ndarray, shifted: np.ndarray, sign: int) -> np.ndarray:
    """The signs of the products ``z1 * z2`` of n pairs of nonzero reals at once.

    ``shifted`` holds ``|z1 + sign*z2|`` per pair; all magnitudes must be
    finite and nonnegative. A sign is +1 where the product
    ``(shifted**2 - m1**2 - m2**2) / (2 sign)`` is >= 0 and -1 elsewhere; a
    zero base magnitude raises ``ZeroMagnitudeError``, for the first such pair.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    zero = _zero_pairs(m1, m2)
    if zero.any():
        first = zero.argmax()
        raise _zero_magnitudes(m1[first], m2[first])
    products = (shifted * shifted - m1 * m1 - m2 * m2) / (2.0 * sign)
    return np.where(products >= 0.0, 1.0, -1.0)
