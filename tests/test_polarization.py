import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynphase import (
    InconsistentDataError,
    PolarizationAngles,
    PolarizationData,
    ZeroMagnitudeError,
    recover_product,
    recover_product_real,
    recover_product_roots_of_unity,
)
from dynphase.polarization import recover_phases, recover_signs
from oracles import polarization_forward

RIGHT = PolarizationAngles(0.0, math.pi / 2)

nonzero_complex = st.builds(
    complex,
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
).filter(lambda z: abs(z) > 1e-3)


def forward(z1, z2, angles=RIGHT):
    return PolarizationData(*polarization_forward(z1, z2, angles.alpha1, angles.alpha2))


class TestAngles:
    def test_parallel_angles_rejected(self):
        for delta in (0.0, math.pi, -math.pi, 2 * math.pi):
            with pytest.raises(ValueError):
                PolarizationAngles(0.3, 0.3 + delta)

    def test_negation_preserves_admissibility(self):
        neg = RIGHT.negated()
        assert neg.alpha1 == 0.0 and neg.alpha2 == -math.pi / 2


class TestRecoverProduct:
    def test_equal_units(self):
        data = PolarizationData(1.0, 1.0, 2.0, math.sqrt(2.0))
        assert recover_product(data, RIGHT) == pytest.approx(1.0)

    def test_quarter_phase(self):
        data = forward(1.0, 1j)
        assert data.mplus1 == pytest.approx(math.sqrt(2.0))
        assert data.mplus2 == pytest.approx(0.0)
        assert recover_product(data, RIGHT) == pytest.approx(1j)

    def test_round_trip_batch(self):
        rng = np.random.default_rng(70)
        for _ in range(1000):
            z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if min(abs(z1), abs(z2)) < 1e-3:
                continue
            recovered = recover_product(forward(z1, z2), RIGHT)
            expected = z1.conjugate() * z2
            assert abs(recovered - expected) <= 1e-9 * abs(z1) * abs(z2)

    @given(nonzero_complex, nonzero_complex)
    def test_round_trip_property(self, z1, z2):
        recovered = recover_product(forward(z1, z2), RIGHT)
        assert abs(recovered - z1.conjugate() * z2) <= 1e-9 * abs(z1) * abs(z2)

    @given(nonzero_complex, nonzero_complex, st.floats(0, 2 * math.pi, allow_nan=False))
    def test_global_phase_equivariance(self, z1, z2, theta):
        spin = cmath.exp(1j * theta)
        plain = forward(z1, z2)
        spun = forward(spin * z1, spin * z2)
        for field in ("m1", "m2", "mplus1", "mplus2"):
            a, b = getattr(plain, field), getattr(spun, field)
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
        assert abs(
            recover_product(plain, RIGHT) - recover_product(spun, RIGHT)
        ) <= 1e-12 * max(abs(z1) * abs(z2), 1.0)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ZeroMagnitudeError):
            recover_product(PolarizationData(0.0, 1.0, 1.0, 1.0), RIGHT)

    def test_inconsistent_data_rejected(self):
        # mplus far beyond the triangle bound m1 + m2
        with pytest.raises(InconsistentDataError):
            recover_product(PolarizationData(1.0, 1.0, 3.0, 1.0), RIGHT)

    def test_boundary_overshoot_is_clamped(self):
        # collinear case puts r exactly at 1; a tiny overshoot must survive
        data = PolarizationData(1.0, 1.0, 2.0 + 1e-9, math.sqrt(2.0))
        assert recover_product(data, RIGHT) == pytest.approx(1.0)

    def test_conditioning_degrades_as_angles_collapse(self):
        rng = np.random.default_rng(71)
        pairs = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
        noise = 1e-8 * rng.standard_normal((300, 4))
        errors = []
        for alpha2 in (math.pi / 2, math.pi / 4, math.pi / 8, math.pi / 16):
            angles = PolarizationAngles(0.0, alpha2)
            total = 0.0
            count = 0
            for (z1, z2), eps in zip(pairs, noise):
                if min(abs(z1), abs(z2)) < 1e-2:
                    continue
                mags = polarization_forward(z1, z2, angles.alpha1, angles.alpha2)
                noisy = PolarizationData(*(max(m + e, 0.0) for m, e in zip(mags, eps)))
                try:
                    recovered = recover_product(noisy, angles)
                except InconsistentDataError:
                    continue
                total += abs(recovered - z1.conjugate() * z2)
                count += 1
            errors.append(total / count)
        assert errors == sorted(errors)


class TestRecoverProductReal:
    def test_plus_one(self):
        assert recover_product_real(1.0, 1.0, 2.0, 1) == pytest.approx(1.0)

    def test_minus_pair(self):
        assert recover_product_real(1.0, 1.0, 0.0, 1) == pytest.approx(-1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            z1, z2 = rng.standard_normal(2)
            if min(abs(z1), abs(z2)) < 1e-3:
                continue
            for sign in (-1, 1):
                product = recover_product_real(abs(z1), abs(z2), abs(z1 + sign * z2), sign)
                assert product == pytest.approx(z1 * z2, abs=1e-12)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ZeroMagnitudeError):
            recover_product_real(1.0, 0.0, 1.0, 1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            recover_product_real(1.0, 1.0, 2.0, 2)


class TestRootsOfUnity:
    def test_vanishing_second_argument(self):
        mags = [abs(1.7 + 0j)] * 4
        assert recover_product_roots_of_unity(mags) == pytest.approx(0.0)

    def test_equal_units_k3(self):
        w = cmath.exp(2j * math.pi / 3)
        mags = [abs(1 + w**-k) for k in range(3)]
        assert recover_product_roots_of_unity(mags) == pytest.approx(1.0)

    def test_matches_linear_solve_route(self):
        rng = np.random.default_rng(73)
        angles = PolarizationAngles(0.0, -math.pi / 2)
        for _ in range(100):
            z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if min(abs(z1), abs(z2)) < 1e-3:
                continue
            w = 1j  # 4th root of unity
            mags = [abs(z1 + w**-k * z2) for k in range(4)]
            viaroots = recover_product_roots_of_unity(mags)
            # k = 0 and k = 1 shifts are exactly the angle pair (0, -pi/2)
            data = PolarizationData(abs(z1), abs(z2), mags[0], mags[1])
            viasolve = recover_product(data, angles)
            expected = z1.conjugate() * z2
            assert abs(viaroots - expected) <= 1e-10 * max(abs(expected), 1.0)
            assert abs(viasolve - viaroots) <= 1e-9 * max(abs(expected), 1.0)

    def test_too_few_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            recover_product_roots_of_unity([1.0, 1.0])


class TestArrayForms:
    """recover_phases / recover_signs against the scalar functions, pair by pair."""

    @staticmethod
    def pairs(n, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        return z[0], z[1]

    def test_phases_match_recover_product(self):
        angles = PolarizationAngles(0.3, 1.9)
        z1, z2 = self.pairs(50, 74)
        data = [forward(a, b, angles) for a, b in zip(z1, z2)]
        m1, m2, p1, p2 = (np.array(col) for col in zip(*(astuple(d) for d in data)))
        got = recover_phases(m1, m2, np.array([p1, p2]), angles)
        want = np.array([recover_product(d, angles) for d in data])
        assert np.max(np.abs(got - want / np.abs(want))) <= 1e-14

    def test_signs_match_recover_product_real(self):
        rng = np.random.default_rng(75)
        z1, z2 = rng.standard_normal((2, 50))
        for sign in (-1, 1):
            shifted = np.abs(z1 + sign * z2)
            got = recover_signs(np.abs(z1), np.abs(z2), shifted, sign)
            want = [
                recover_product_real(abs(a), abs(b), s, sign) for a, b, s in zip(z1, z2, shifted)
            ]
            assert np.array_equal(got, np.where(np.array(want) >= 0, 1.0, -1.0))

    def test_empty(self):
        empty = np.zeros(0)
        assert recover_phases(empty, empty, np.zeros((2, 0)), RIGHT).shape == (0,)
        assert recover_signs(empty, empty, empty, 1).shape == (0,)

    def test_first_failing_pair_decides(self):
        m = np.ones(3)
        # z1 = z2 = 1 under the angles (0, pi/2)
        shifted = np.array([[2.0] * 3, [math.sqrt(2.0)] * 3])
        shifted[0, 2] = 5.0  # inconsistent, after a zero magnitude
        zero = m.copy()
        zero[1] = 0.0
        with pytest.raises(ZeroMagnitudeError):
            recover_phases(m, zero, shifted, RIGHT)
        shifted[1, 0] = 5.0  # inconsistent, before it
        with pytest.raises(InconsistentDataError, match="cos term 11.5 outside"):
            recover_phases(m, zero, shifted, RIGHT)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            recover_signs(np.ones(1), np.ones(1), np.ones(1), 0)
