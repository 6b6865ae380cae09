import cmath
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dynphase import InconsistentDataError, PolarizationAngles, ZeroMagnitudeError
from dynphase.polarization import recover_phases, recover_signs
from dynphase.serialization import angles_to_json, dump_json
from oracles import (
    polarization_forward,
    recover_product_real_scalar,
    recover_product_roots_of_unity,
    recover_product_scalar,
)

RIGHT = PolarizationAngles(0.0, math.pi / 2)

nonzero_complex = st.builds(
    complex,
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
).filter(lambda z: abs(z) > 1e-3)

# zero, or far above where products of magnitudes underflow (ROADMAP 29)
zero_or_nonzero = st.one_of(st.just(0j), nonzero_complex)


def forward(z1, z2, angles=RIGHT):
    return polarization_forward(z1, z2, angles.alpha1, angles.alpha2)


def pairs_of(*values):
    """Each value, a number or a sequence, as a float array of one or more pairs."""
    return [np.array(v, dtype=float, ndmin=1) for v in values]


def products(m1, m2, plus1, plus2, angles=RIGHT):
    """``conj(z1) z2`` from the four magnitudes of each pair: ``m1 m2`` times recover_phases."""
    m1, m2, plus1, plus2 = pairs_of(m1, m2, plus1, plus2)
    return m1 * m2 * recover_phases(m1, m2, np.array([plus1, plus2]), angles)


class TestAngles:
    def test_parallel_angles_rejected(self):
        for delta in (0.0, math.pi, -math.pi, 2 * math.pi):
            with pytest.raises(ValueError):
                PolarizationAngles(0.3, 0.3 + delta)

    @pytest.mark.parametrize("pair", [(0.0, math.pi / 2), (0.3, 1.9), (-2.5, 0.7)])
    def test_kept_state_stays_out_of_identity(self, pair):
        used, fresh = PolarizationAngles(*pair), PolarizationAngles(*pair)
        m = np.array([0.8, 1.1])
        recover_phases(m, m[::-1], np.array([[1.2, 1.0], [0.9, 1.3]]), used)
        assert not used._unmix.flags.writeable
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert dump_json(angles_to_json(used)) == dump_json(angles_to_json(fresh))
        back = pickle.loads(pickle.dumps(used))
        assert back == used and hash(back) == hash(used) and repr(back) == repr(used)
        assert np.array_equal(back._unmix, used._unmix)

    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.lists(st.tuples(zero_or_nonzero, zero_or_nonzero), min_size=1, max_size=4),
    )
    # equal shifted magnitudes make the sine cancel exactly, to +0 under either pair
    @example(math.pi / 3, -math.pi / 3, [(0.5, 2.0)])
    def test_conjugate_pair_is_the_negated_pair_bit_for_bit(self, alpha1, alpha2, pairs):
        """Measured as ``measure`` writes them, ``|c_l + e^{-ia} c_m|`` is
        ``|conj(c_l) + e^{ia} conj(c_m)|``: the set's own pair gives the conjugate
        of the negated pair's phases, ``0 - sin`` keeping a zero sine +0 as they do."""
        try:
            angles = PolarizationAngles(alpha1, alpha2)
        except ValueError:
            assume(False)
        negated = PolarizationAngles(-alpha1, -alpha2)
        c1, c2 = np.array(pairs, dtype=complex).T
        z = c1 + angles._shifts[:, None] * c2
        m1, m2, shifted = np.abs(c1), np.abs(c2), np.hypot(z.real, z.imag)
        outcomes = []
        for pair in (angles, negated):
            try:
                outcomes.append(recover_phases(m1, m2, shifted, pair))
            except ValueError as error:
                outcomes.append((type(error), str(error)))
        got, want = outcomes
        assert type(got) is type(want)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.real.tobytes() == want.real.tobytes()
            assert (0.0 - got.imag).tobytes() == want.imag.tobytes()


class TestRecoverProduct:
    """recover_phases, scaled by m1 m2, as the product conj(z1) z2."""

    def test_equal_units(self):
        assert products(1.0, 1.0, 2.0, math.sqrt(2.0))[0] == pytest.approx(1.0)

    def test_quarter_phase(self):
        mags = forward(1.0, 1j)
        assert mags[2] == pytest.approx(math.sqrt(2.0))
        assert mags[3] == pytest.approx(0.0)
        assert products(*mags)[0] == pytest.approx(1j)

    def test_round_trip_batch(self):
        rng = np.random.default_rng(70)
        z = np.array([rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(1000)])
        z1, z2 = z[np.min(np.abs(z), axis=1) >= 1e-3].T
        recovered = products(*forward(z1, z2))
        expected = z1.conjugate() * z2
        assert np.all(np.abs(recovered - expected) <= 1e-9 * np.abs(z1) * np.abs(z2))

    @given(nonzero_complex, nonzero_complex)
    def test_round_trip_property(self, z1, z2):
        recovered = products(*forward(z1, z2))[0]
        assert abs(recovered - z1.conjugate() * z2) <= 1e-9 * abs(z1) * abs(z2)

    @given(nonzero_complex, nonzero_complex, st.floats(0, 2 * math.pi, allow_nan=False))
    def test_global_phase_equivariance(self, z1, z2, theta):
        spin = cmath.exp(1j * theta)
        plain = forward(z1, z2)
        spun = forward(spin * z1, spin * z2)
        for a, b in zip(plain, spun):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
        assert abs(
            products(*plain)[0] - products(*spun)[0]
        ) <= 1e-12 * max(abs(z1) * abs(z2), 1.0)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ZeroMagnitudeError):
            products(0.0, 1.0, 1.0, 1.0)

    def test_inconsistent_data_rejected(self):
        # mplus far beyond the triangle bound m1 + m2
        with pytest.raises(InconsistentDataError):
            products(1.0, 1.0, 3.0, 1.0)

    def test_boundary_overshoot_is_clamped(self):
        # collinear case puts r exactly at 1; a tiny overshoot must survive
        assert products(1.0, 1.0, 2.0 + 1e-9, math.sqrt(2.0))[0] == pytest.approx(1.0)

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
                mags = forward(z1, z2, angles)
                noisy = [max(m + e, 0.0) for m, e in zip(mags, eps)]
                try:
                    recovered = products(*noisy, angles)[0]
                except InconsistentDataError:
                    continue
                total += abs(recovered - z1.conjugate() * z2)
                count += 1
            errors.append(total / count)
        assert errors == sorted(errors)


class TestRecoverProductReal:
    """recover_signs as the sign of the real product z1 * z2."""

    def test_plus_one(self):
        assert recover_signs(*pairs_of(1.0, 1.0, 2.0), 1)[0] == 1.0

    def test_minus_pair(self):
        assert recover_signs(*pairs_of(1.0, 1.0, 0.0), 1)[0] == -1.0

    def test_round_trip(self):
        rng = np.random.default_rng(72)
        z = np.array([rng.standard_normal(2) for _ in range(200)])
        z1, z2 = z[np.min(np.abs(z), axis=1) >= 1e-3].T
        for sign in (-1, 1):
            got = recover_signs(np.abs(z1), np.abs(z2), np.abs(z1 + sign * z2), sign)
            assert np.array_equal(got, np.sign(z1 * z2))

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ZeroMagnitudeError):
            recover_signs(*pairs_of(1.0, 0.0, 1.0), 1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            recover_signs(*pairs_of(1.0, 1.0, 2.0), 2)


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
            viasolve = products(abs(z1), abs(z2), mags[0], mags[1], angles)[0]
            expected = z1.conjugate() * z2
            assert abs(viaroots - expected) <= 1e-10 * max(abs(expected), 1.0)
            assert abs(viasolve - viaroots) <= 1e-9 * max(abs(expected), 1.0)

    def test_too_few_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            recover_product_roots_of_unity([1.0, 1.0])


class TestArrayForms:
    """recover_phases / recover_signs against the scalar oracles, pair by pair."""

    @staticmethod
    def pairs(n, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        return z[0], z[1]

    def test_phases_match_recover_product(self):
        angles = PolarizationAngles(0.3, 1.9)
        z1, z2 = self.pairs(50, 74)
        m1, m2, p1, p2 = forward(z1, z2, angles)
        got = recover_phases(m1, m2, np.array([p1, p2]), angles)
        want = np.array([recover_product_scalar(*mags, angles) for mags in zip(m1, m2, p1, p2)])
        assert np.max(np.abs(got - want / np.abs(want))) <= 1e-14

    def test_signs_match_recover_product_real(self):
        rng = np.random.default_rng(75)
        z1, z2 = rng.standard_normal((2, 50))
        for sign in (-1, 1):
            shifted = np.abs(z1 + sign * z2)
            got = recover_signs(np.abs(z1), np.abs(z2), shifted, sign)
            want = [
                recover_product_real_scalar(abs(a), abs(b), s, sign)
                for a, b, s in zip(z1, z2, shifted)
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

    def test_first_zero_pair_decides_signs(self):
        m1, m2 = np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0])
        with pytest.raises(ZeroMagnitudeError, match=r"\(2, 0\) too close"):
            recover_signs(m1, m2, np.ones(3), 1)

    @pytest.mark.parametrize("shifted", [1.0, 0.0], ids=["shifted-1", "shifted-0"])
    def test_zero_pairs_raise_no_floating_point_error(self, shifted):
        m1 = np.array([1.0, 2.0, 0.0, 3.0])
        m2 = np.array([1.0, 0.0, 0.0, 1.0])
        cells = np.array([[2.0, 2.0, shifted, 4.0], [math.sqrt(2.0), 2.0, shifted, 2.0]])
        both_zero = (m1[2:], m2[2:], cells[:, 2:])
        with np.errstate(all="raise"):
            with pytest.raises(ZeroMagnitudeError, match=r"\(0, 0\) too close"):
                recover_phases(*both_zero, RIGHT)
            with pytest.raises(ZeroMagnitudeError, match=r"\(2, 0\) too close"):
                recover_phases(m1, m2, cells, RIGHT)
            with pytest.raises(ZeroMagnitudeError, match=r"\(0, 0\) too close"):
                recover_signs(*both_zero[:2], cells[0, 2:], 1)
            with pytest.raises(ZeroMagnitudeError, match=r"\(2, 0\) too close"):
                recover_signs(m1, m2, cells[0], -1)

    def test_last_pair_alone_failing_decides(self):
        m = np.ones(4)
        shifted = np.array([[2.0] * 4, [math.sqrt(2.0)] * 4])
        zero = m.copy()
        zero[3] = 0.0
        with np.errstate(all="raise"):
            with pytest.raises(ZeroMagnitudeError, match=r"\(1, 0\) too close"):
                recover_phases(m, zero, shifted, RIGHT)
            shifted[1, 3] = 5.0
            with pytest.raises(InconsistentDataError, match="cos term 11.5 outside"):
                recover_phases(m, m, shifted, RIGHT)
            shifted[1, 3] = math.sqrt(2.0)
            shifted[0, 3] = math.sqrt(2.0)
            with pytest.raises(InconsistentDataError, match="vanishing length"):
                recover_phases(m, m, shifted, RIGHT)

    def test_nan_direction_refused(self):
        # m1 * m2 underflows to 0 for a pair that passes the relative zero test
        m = np.array([1.0, 1e-170])
        shifted = np.array([[2.0, 2e-170], [math.sqrt(2.0), math.sqrt(2.0) * 1e-170]])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(InconsistentDataError, match="vanishing length"):
                recover_phases(m, m, shifted, RIGHT)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            recover_signs(np.ones(1), np.ones(1), np.ones(1), 0)


class TestScalarFormsMatchOracle:
    """recover_phases / recover_signs on one pair against the scalar oracles."""

    @staticmethod
    def raised(call, *args):
        try:
            call(*args)
        except Exception as exc:  # the type and message are compared
            return type(exc), str(exc)
        return None

    def test_values(self):
        rng = np.random.default_rng(76)
        for _ in range(500):
            angles = PolarizationAngles(*rng.uniform(-math.pi, math.pi, 2))
            z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            mags = forward(z1, z2, angles)
            want = recover_product_scalar(*mags, angles)
            assert abs(products(*mags, angles)[0] - want) <= 1e-13 * abs(want)
            for sign in (-1, 1):
                args = (abs(z1.real), abs(z2.real), abs(z1.real + sign * z2.real))
                want = 1.0 if recover_product_real_scalar(*args, sign) >= 0.0 else -1.0
                assert recover_signs(*pairs_of(*args), sign)[0] == want

    @pytest.mark.parametrize(
        "mags",
        [
            (0.0, 1.0, 1.0, 1.0),  # zero base magnitude
            (2.0, 1e-13, 2.0, 2.0),  # below the relative floor
            (1.0, 1.0, 3.0, 1.0),  # first cosine outside [-1, 1]
            (1.0, 2.0, 3.0, 0.0),  # second cosine outside [-1, 1]
            (1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)),  # vanishing direction
        ],
    )
    def test_errors(self, mags):
        want = self.raised(recover_product_scalar, *mags, RIGHT)
        assert want is not None
        assert self.raised(products, *mags) == want

    @pytest.mark.parametrize(
        "args", [(1.0, 0.0, 1.0, 1), (1e-13, 2.0, 2.0, -1), (1.0, 1.0, 2.0, 2)]
    )
    def test_real_errors(self, args):
        want = self.raised(recover_product_real_scalar, *args)
        assert want is not None
        assert self.raised(recover_signs, *pairs_of(*args[:3]), args[3]) == want


@pytest.mark.parametrize("alpha1, alpha2", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_argument_checks(alpha1, alpha2):
    with pytest.raises(ValueError) as exc:
        PolarizationAngles(alpha1, alpha2)
    assert str(exc.value) == "angles must be finite"
