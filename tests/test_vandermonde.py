import itertools
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynphase import (
    BudgetExceededError,
    DimensionMismatchError,
    DynamicalFrame,
    classical,
    full_spark,
    full_spark_criterion,
    second_kind,
    vandermonde,
)
from dynphase.instances import make_instance
from oracles import (
    det_cofactor,
    det_product_classical,
    det_product_second_kind,
    exact_det,
    first_kind,
    full_spark_serial,
    random_distinct,
    schur_value,
    spark_by_enumeration,
)


def _fields(certificate):
    return certificate.full_spark, certificate.witness, certificate.min_abs_det


def _assert_matches(certificate, expected, label=None):
    """Same verdict and witness, and ``min_abs_det`` within 1e-15 (NaN equals NaN).

    Scaled minors are at most 1 (Hadamard), so the bound is relative too.
    """
    assert certificate.full_spark == expected.full_spark, label
    assert certificate.witness == expected.witness, label
    got, want = certificate.min_abs_det, expected.min_abs_det
    assert (math.isnan(got) and math.isnan(want)) or abs(got - want) <= 1e-15, label


def _orbit(kind, d, seed):
    return make_instance(kind, d, 2 * d, seed=seed).build_frame().synthesis()


def _subsets_per_chunk(monkeypatch, d, count):
    """Shrink full_spark's chunks to ``count`` d-subsets, by the module's own sizing."""
    monkeypatch.setattr(vandermonde, "_CHUNK_BYTES", count * vandermonde._subset_bytes(d))


def _chunks(m, first=0):
    """How many chunks ``_prefix_minors`` yields on ``m`` made complex, as ``full_spark`` does."""
    return sum(1 for _ in vandermonde._prefix_minors(np.asarray(m, dtype=complex), first))


class TestClassical:
    def test_equal_points_give_rank_one(self):
        v = classical(np.array([1.0, 1.0, 1.0]), 4)
        assert np.linalg.matrix_rank(v) == 1

    def test_zero_one_points(self):
        assert np.allclose(classical(np.array([0.0, 1.0]), 3), [[1, 0, 0], [1, 1, 1]])

    def test_one_two_three_determinant(self):
        v = classical(np.array([1.0, 2.0, 3.0]), 3)
        assert np.linalg.det(v) == pytest.approx(2.0)
        assert det_cofactor(v) == pytest.approx(2.0)


class TestDetProductClassical:
    def test_repeated_point_vanishes(self):
        assert det_product_classical(np.array([2.0, 2.0, 5.0])) == 0

    def test_single_point_empty_product(self):
        assert det_product_classical(np.array([7.0])) == 1

    def test_one_two_three(self):
        # the factor order matches the LU determinant sign, |.| matches either order
        assert det_product_classical(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)

    def test_matches_lu_determinant_with_sign(self):
        rng = np.random.default_rng(30)
        for d in range(2, 7):
            values = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            product = det_product_classical(values)
            lu = np.linalg.det(classical(values, d))
            assert abs(product - lu) <= 1e-9 * abs(lu)

    def test_overflowing_difference_raises(self):
        # 1e308 - (-1e308) is inf: the unit-multiplicity confluent product refuses it
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            det_product_classical(np.array([1e308, -1e308]))

    def test_non_finite_product_raises_one_error(self):
        # an infinite difference, and finite differences whose product overflows
        for values in (np.array([1e308, -1e308]), 1e200 * np.arange(1, 4)):
            with np.errstate(over="ignore"):
                with pytest.raises(OverflowError, match="determinant product"):
                    det_product_classical(values)
        with pytest.raises(OverflowError, match="determinant product"):
            det_product_second_kind(np.array([1e160, -1e160]), (2, 1))

    def test_schur_value_refuses_an_overflowing_product(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="determinant product"):
                schur_value(1e200 * np.arange(1, 4), (0, 1, 2))


class TestFirstKind:
    def test_contiguous_exponents_reduce_to_classical(self):
        rng = np.random.default_rng(31)
        values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(first_kind(values, range(4)), classical(values, 4))

    def test_gapped_selection(self):
        assert np.allclose(first_kind(np.array([1.0, 2.0]), (0, 2)), [[1, 1], [1, 4]])

    def test_positive_points_give_nonzero_determinant(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            values = np.sort(rng.uniform(0.1, 3.0, 3))
            while np.min(np.diff(values)) < 0.05:
                values = np.sort(rng.uniform(0.1, 3.0, 3))
            exponents = sorted(rng.choice(8, size=3, replace=False))
            det = det_cofactor(first_kind(values, exponents))
            assert abs(det) > 1e-8

    def test_rejects_non_increasing_exponents(self):
        with pytest.raises(ValueError):
            first_kind(np.array([1.0, 2.0]), (2, 1))


class TestSchurValue:
    def test_contiguous_exponents_give_one(self):
        rng = np.random.default_rng(33)
        values = random_distinct(rng, 4)
        assert schur_value(values, range(4)) == pytest.approx(1.0, abs=1e-9)

    def test_first_gap_gives_power_sum(self):
        # exponents (0, 2) in two variables: value x + y
        x, y = 1.7, -0.4
        assert schur_value(np.array([x, y]), (0, 2)) == pytest.approx(x + y)

    def test_positive_points_give_positive_value(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            values = np.array(sorted(rng.uniform(0.1, 2.0, 4)))
            if np.min(np.diff(values)) < 0.05:
                continue
            exponents = sorted(rng.choice(9, size=4, replace=False))
            value = schur_value(values, exponents)
            assert value.real > 0 and abs(value.imag) < 1e-9 * value.real

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(35)
        values = random_distinct(rng, 4)
        exponents = (0, 2, 3, 6)
        reference = schur_value(values, exponents)
        for perm in itertools.permutations(range(4)):
            permuted = schur_value(values[list(perm)], exponents)
            assert abs(permuted - reference) <= 1e-8 * abs(reference)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            schur_value(np.array([1.0, 1.0]), (0, 2))

    def test_square_selection_required(self):
        with pytest.raises(DimensionMismatchError):
            schur_value(np.array([1.0, 2.0]), (0, 1, 2))

    def test_factorization_reproduces_first_kind_determinant(self):
        rng = np.random.default_rng(36)
        values = random_distinct(rng, 3)
        exponents = (1, 3, 4)
        det = np.linalg.det(first_kind(values, exponents))
        rebuilt = det_product_classical(values) * schur_value(values, exponents)
        assert abs(det - rebuilt) <= 1e-12 * abs(det)

    def test_sign_matches_prefactor_for_positive_points(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            values = np.array(sorted(rng.uniform(0.1, 2.0, 3), reverse=True))
            if np.min(np.abs(np.diff(values))) < 0.05:
                continue
            exponents = sorted(rng.choice(7, size=3, replace=False))
            det = np.linalg.det(first_kind(values, exponents)).real
            prefactor = det_product_classical(values).real
            assert np.sign(det) == np.sign(prefactor)


class TestSecondKind:
    def test_all_ones_profile_is_classical(self):
        rng = np.random.default_rng(38)
        values = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(second_kind(values, (1, 1, 1), 5), classical(values, 5))

    def test_unit_blocks_are_classical_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for d in range(1, 10):
            values = rng.uniform(0.5, 1.5, d) * np.exp(2j * np.pi * rng.uniform(0, 1, d))
            values[d // 2] = 0.0
            for length in (1, 2, 7, 99, 100, 101, 300):
                confluent = second_kind(values, (1,) * d, length)
                assert confluent.tobytes() == classical(values, length).tobytes()

    def test_overflowing_unit_blocks_are_classical_bit_for_bit(self):
        # the powers overflow to inf (and inf - inf to NaN) as classical's do
        values = np.array([1e200, 2.0, 1e200j])
        with np.errstate(over="ignore", invalid="ignore"):
            confluent = second_kind(values, (1, 1, 1), 4)
            expected = classical(values, 4)
        assert not np.all(np.isfinite(expected))
        assert confluent.tobytes() == expected.tobytes()

    def test_overflowing_spectrum_criterion_refuses_the_matrix(self):
        values = np.array([1e110, 2e110j, -3e110])  # (-3e110) ** 3 overflows at L = 4
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"confluent column 3 is not finite \(overflow\)"):
                full_spark_criterion(values, np.ones(3), 4)

    def test_confluent_row_structure(self):
        lam = 0.8 - 0.2j
        m = second_kind(np.array([lam, 2.0, 3.0]), (3, 1, 2), 6)
        expected_row = [0, 0, 1, 3 * lam, 6 * lam**2, 10 * lam**3]
        assert np.allclose(m[2], expected_row)
        assert m.shape == (6, 6)

    def test_zero_point_block_gives_shifted_unit_rows(self):
        m = second_kind(np.array([0.0]), (3,), 3)
        assert np.allclose(m, np.eye(3))

    def test_repeated_points_singular(self):
        values = np.array([1.5, 1.5])
        assert det_product_second_kind(values, (2, 1)) == 0
        assert abs(np.linalg.det(second_kind(values, (2, 1), 3))) < 1e-9

    def test_two_simple_points(self):
        a, b = 0.3 + 1j, -1.2
        assert det_product_second_kind(np.array([a, b]), (1, 1)) == pytest.approx(b - a)

    def test_product_matches_lu_on_confluent_shape(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            values = random_distinct(rng, 3)
            product = det_product_second_kind(values, (3, 1, 2))
            lu = np.linalg.det(second_kind(values, (3, 1, 2), 6))
            assert abs(product - lu) <= 1e-9 * abs(lu)

    def test_product_matches_lu_across_profiles(self):
        rng = np.random.default_rng(40)
        for mults in [(1, 1), (2, 2), (2, 1, 1), (4, 2), (1, 2, 3)]:
            values = random_distinct(rng, len(mults))
            d = sum(mults)
            product = det_product_second_kind(values, mults)
            lu = np.linalg.det(second_kind(values, mults, d))
            assert abs(product - lu) <= 1e-9 * abs(lu)


class TestFullSpark:
    def test_square_distinct_points(self):
        rng = np.random.default_rng(41)
        values = random_distinct(rng, 3)
        certificate = full_spark(classical(values, 3))
        assert certificate.full_spark
        assert certificate.witness is None
        assert certificate.min_abs_det > 0

    def test_zero_column_fails_with_witness(self):
        m = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0]])
        certificate = full_spark(m)
        assert not certificate.full_spark
        assert 1 in certificate.witness
        assert certificate.min_abs_det == 0.0

    def test_harmonic_synthesis_full_spark(self):
        w = np.exp(2j * np.pi / 6)
        values = w ** np.arange(4)
        certificate = full_spark(classical(values, 6))
        assert certificate.full_spark
        ok, _ = spark_by_enumeration(classical(values, 6))
        assert ok

    def test_lexicographically_first_witness(self):
        # cube roots of unity repeat coordinates with period 3, so columns
        # {0, 3} coincide; the first failing subset is (0, 1, 3)
        w = np.exp(2j * np.pi / 3)
        values = w ** np.arange(3)
        certificate = full_spark(classical(values, 6))
        assert not certificate.full_spark
        assert certificate.witness == (0, 1, 3)
        ok, first = spark_by_enumeration(classical(values, 6))
        assert not ok and first == (0, 1, 3)

    def test_budget_exceeded(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("enumeration started before the budget check")

        monkeypatch.setattr(np.linalg, "det", unreachable)
        monkeypatch.setattr(np.linalg, "qr", unreachable)
        monkeypatch.setattr(np.linalg, "norm", unreachable)
        monkeypatch.setattr(itertools, "combinations", unreachable)
        monkeypatch.setattr(vandermonde, "_subsets", unreachable)
        monkeypatch.setattr(vandermonde, "_shifts", unreachable)
        with pytest.raises(BudgetExceededError):
            full_spark(np.ones((3, 40)), budget=100)
        # the shifted enumeration factors only C(39, 2) = 741 minors, but
        # the budget still counts all C(40, 3) = 9880 subsets
        with pytest.raises(BudgetExceededError):
            full_spark(np.ones((3, 40)), budget=1000, shift_det=1.0)

    def test_tall_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError):
            full_spark(np.ones((4, 3)))

    def test_geometric_points_not_roots_of_unity(self):
        base = 0.9 * np.exp(0.7j)  # |base| != 1, no power equals 1
        values = base ** np.arange(3)
        certificate = full_spark(classical(values, 6))
        assert certificate.full_spark
        ok, _ = spark_by_enumeration(classical(values, 6))
        assert ok

    @pytest.mark.parametrize("shift_det", [None, -1.0], ids=["plain", "shifted"])
    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_out_of_range_minor_is_certified(self, scale, shift_det):
        # as given, |det| and the column-norm product both overflow (inf / inf
        # = NaN) or underflow (0 / 0 = 0); in units of 2^e the minor is 1
        m = np.diag([scale, scale]).astype(complex)
        assert _fields(full_spark(m, shift_det=shift_det)) == (True, None, 1.0)


class TestScaleEquivariance:
    """``full_spark`` certifies each column in units of its own power of two
    (an orbit's on a line in l), so scaling a column of a matrix, or a whole
    orbit, by a power of two moves no bit of the certificate."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["random-diag", "jordan", "circulant", "harmonic"]),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.integers(-1000, 1000),
    )
    def test_power_of_two_scaling(self, kind, d, seed, shifted, k):
        try:
            frame = make_instance(kind, d, 2 * d, seed=seed).build_frame()
        except RuntimeError:  # the sampler found no dense signal (ROADMAP 1b)
            assume(False)
        m = frame.synthesis()
        scaled = m * 2.0**k
        assume(np.array_equal(scaled * 2.0**-k, m))  # no entry left the normal range
        shift_det = np.linalg.det(frame.operator) if shifted else None
        want = _bits(full_spark(m, shift_det=shift_det))
        assert _bits(full_spark(scaled, shift_det=shift_det)) == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["random-diag", "jordan", "circulant", "harmonic"]),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_power_of_two_scaling_per_column(self, kind, d, seed, data):
        try:
            m = _orbit(kind, d, seed)
        except RuntimeError:  # the sampler found no dense signal (ROADMAP 1b)
            assume(False)
        k = np.array(data.draw(st.lists(st.integers(-300, 300), min_size=2 * d, max_size=2 * d)))
        scaled = m * 2.0**k
        assume(np.array_equal(scaled * 2.0**-k, m))
        assert _bits(full_spark(scaled)) == _bits(full_spark(m))

    def test_columns_decades_apart_agree_plain_shifted_and_by_spectrum(self):
        # column l has norm about 300^l, up to 1e133, and |det A| = 6e6
        values = np.array([100, 200j, -300])
        m = classical(values, 55)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certificates = [
                full_spark(m),
                full_spark(m, shift_det=np.prod(values)),
                full_spark_criterion(values, np.ones(3), 55),
            ]
        for certificate in certificates:
            assert (certificate.full_spark, certificate.witness) == (False, (2, 52, 53))


class TestFullSparkChunks:
    """The chunked enumeration against the one-subset-at-a-time LU loop."""

    @pytest.mark.parametrize("kind", ["harmonic", "random-diag", "jordan"])
    def test_orbits_match_serial_oracle(self, kind):
        verdicts = []
        for d in (4, 5, 6):
            for seed in (0, 2):
                m = _orbit(kind, d, seed)
                certificate = full_spark(m)
                _assert_matches(certificate, full_spark_serial(m), (d, seed))
                verdicts.append(certificate.full_spark)
        if kind == "jordan":
            assert not all(verdicts)  # jordan 6/12 seeds 0 and 2 fail

    @pytest.mark.parametrize("per_chunk", [1, 5, 64])
    def test_witness_in_later_partial_chunk(self, monkeypatch, per_chunk):
        # C(12, 6) = 924 subsets: chunks of 5 and 64 leave a partial last chunk
        m = _orbit("jordan", 6, 0)
        expected = full_spark_serial(m)
        order = list(itertools.combinations(range(12), 6))
        assert order.index(expected.witness) >= per_chunk
        _subsets_per_chunk(monkeypatch, 6, per_chunk)
        assert _chunks(m) == math.ceil(len(order) / per_chunk)
        _assert_matches(full_spark(m), expected)

    def test_square_matrix_is_one_subset(self, monkeypatch):
        rng = np.random.default_rng(42)
        m = classical(random_distinct(rng, 5), 5)
        _assert_matches(full_spark(m), full_spark_serial(m))
        m[:, 3] = m[:, 1]
        _subsets_per_chunk(monkeypatch, 5, 1)
        assert _chunks(m) == 1
        certificate = full_spark(m)
        assert certificate.witness == (0, 1, 2, 3, 4)
        _assert_matches(certificate, full_spark_serial(m))

    def test_zero_column_in_later_chunk(self, monkeypatch):
        rng = np.random.default_rng(43)
        m = classical(random_distinct(rng, 3), 10)
        m[:, 7] = 0.0
        _subsets_per_chunk(monkeypatch, 3, 4)
        assert _chunks(m) == math.comb(10, 3) // 4
        certificate = full_spark(m)
        # (0, 1, 7) is the sixth subset, in the second chunk of four
        assert certificate.witness == (0, 1, 7)
        assert certificate.min_abs_det == 0.0
        _assert_matches(certificate, full_spark_serial(m))

    def test_real_input(self, monkeypatch):
        rng = np.random.default_rng(44)
        m = rng.standard_normal((4, 9))
        _assert_matches(full_spark(m), full_spark_serial(m))
        m[:, 6] = -2.0 * m[:, 2]
        _subsets_per_chunk(monkeypatch, 4, 3)
        assert _chunks(m) == math.comb(9, 4) // 3
        certificate = full_spark(m)
        assert certificate.witness == (0, 1, 2, 6)
        _assert_matches(certificate, full_spark_serial(m))

    @pytest.mark.parametrize("kind, d", [("jordan", 6), ("random-diag", 8)])
    def test_chunk_size_moves_no_bit(self, monkeypatch, kind, d):
        # chunks regroup independent per-prefix LAPACK calls and elementwise
        # tail arithmetic, so plain and shifted certificates keep every bit
        monkeypatch.setattr(vandermonde, "_plans", OrderedDict())
        frame = make_instance(kind, d, 2 * d, seed=0).build_frame()
        m, det_a = frame.synthesis(), np.linalg.det(frame.operator)
        subsets = math.comb(2 * d, d)
        seen = set()
        for per_chunk in (5, 64, 1000, subsets):
            _subsets_per_chunk(monkeypatch, d, per_chunk)
            assert _chunks(m) == math.ceil(subsets / per_chunk)
            seen.add(tuple(_bits(full_spark(m, shift_det=s)) for s in (None, det_a)))
        assert len(seen) == 1


def _shift_cases():
    """(name, orbit, det(A)) for orbits whose shifted minors the tests check."""
    cases = []
    for kind, d, L, seed in (
        ("random-diag", 5, 10, 0),
        ("jordan", 6, 12, 0),  # fails first at shift 3: (3, 7, 8, 9, 10, 11)
        ("circulant", 5, 10, 0),
        ("random-diag", 4, 4, 0),  # d = L: one subset, no shift
    ):
        frame = make_instance(kind, d, L, seed=seed).build_frame()
        cases.append((f"{kind} {d}/{L}", frame.synthesis(), np.linalg.det(frame.operator)))
    phi = np.array([1 + 1j, 0.5 - 1j, 1.0, 0.7j])
    for name, A, L in (
        # columns 4.. vanish and det(A) = 0: every shifted minor is zero
        ("nilpotent 4/7", np.diag(np.ones(3), 1), 7),
        # A^l phi has no first coordinate for l >= 1, so the first failing
        # subset is the shift of (0, 1, 2, 3) by one
        ("singular diagonal 4/8", np.diag([0.0, 0.5 + 0.5j, -0.8, 1.1j]), 8),
        ("d=1 1/6", np.array([[0.9 * np.exp(0.7j)]]), 6),
    ):
        frame = DynamicalFrame(A, phi[: A.shape[0]], L)
        cases.append((name, frame.synthesis(), np.linalg.det(A)))
    return cases


class TestFullSparkShift:
    """Minors scaled by powers of det(A) against the one-subset-at-a-time loop."""

    @pytest.mark.parametrize("per_chunk", [1, 5, 64])
    def test_orbits_match_serial_oracle(self, monkeypatch, per_chunk):
        factored = []
        prefix_minors = vandermonde._prefix_minors

        def counted(m, first):
            for idx, absdet in prefix_minors(m, first):
                factored.append(absdet.size)
                yield idx, absdet

        monkeypatch.setattr(vandermonde, "_prefix_minors", counted)
        for name, m, shift_det in _shift_cases():
            d, L = m.shape
            _subsets_per_chunk(monkeypatch, d, per_chunk)
            factored.clear()
            certificate = full_spark(m, shift_det=shift_det)
            assert sum(factored) == math.comb(L - 1, d - 1), name
            assert len(factored) == math.ceil(math.comb(L - 1, d - 1) / per_chunk), name
            factored.clear()
            plain = full_spark(m)
            assert sum(factored) == math.comb(L, d), name
            assert len(factored) == math.ceil(math.comb(L, d) / per_chunk), name
            expected = full_spark_serial(m)
            _assert_matches(certificate, expected, name)
            _assert_matches(plain, expected, name)

    @pytest.mark.parametrize("shift_det", [np.nan, np.inf, complex("nan")], ids=repr)
    def test_non_finite_shift_det_rejected(self, shift_det):
        # an overflowed det(A) declares nothing: every minor is factored
        m, det_a = {name: case for name, *case in _shift_cases()}["singular diagonal 4/8"]
        assert full_spark(m, shift_det=det_a).witness == (1, 2, 3, 4)
        assert _bits(full_spark(m, shift_det=shift_det)) == _bits(full_spark(m))

    @pytest.mark.parametrize(
        "values, shift_det",
        [([1e-200, 1.0, 0.5], 5e-201), ([0.5, 1.0, -1.0], 1e300)],
        ids=["third power underflows", "third power overflows"],
    )
    def test_shift_past_the_range_declares_nothing(self, values, shift_det):
        # every column's largest part is 1 (k = 0), so |shift_det|^(L - d) stays as it is;
        # an underflowed power would read the minors of shifts 2 and 3 as 0
        m = classical(values, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _bits(full_spark(m, shift_det=shift_det)) == _bits(full_spark(m))


def _bits(certificate):
    """The certificate's fields, ``min_abs_det`` as its exact bits."""
    return certificate.full_spark, certificate.witness, float(certificate.min_abs_det).hex()


def _pinned_orbit(d, singular):
    """A d x (d + 3) orbit of a fixed-seed operator A, and det(A).

    ``singular`` zeroes the first column of A, so that every subset without
    column 0 is rank deficient and the first of them is the witness.
    """
    rng = np.random.default_rng([31, d])
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if singular:
        A[:, 0] = 0.0
    columns = [rng.standard_normal(d) + 1j * rng.standard_normal(d)]
    for _ in range(d + 2):
        columns.append(A @ columns[-1])
    return np.column_stack(columns), np.linalg.det(A)


#: (witness, min_abs_det.hex()) of full_spark on ``_pinned_orbit(d, singular)``,
#: for singular False then True, each plain then with shift_det, as computed
#: by the kernel that projects columns k..L-1 by each prefix in one product
#: and takes every tail determinant in ``_tail_dets``. Recorded with numpy
#: 2.4.6 and OpenBLAS 0.3.31 (SkylakeX kernels) on x86-64; another LAPACK or
#: BLAS may round differently, within the bound ``TestErrorBound`` holds.
#: Three d = 10 entries were recorded anew, moved by at most 9.2e-23, when
#: each column came to be certified in units of its own power of two: the
#: 5 x 5 tails go to ``np.linalg.det``, which is not exact under that scaling.
PINNED = {
    1: [
        (None, "0x1.0000000000000p+0"),
        (None, "0x1.0000000000000p+0"),
        ((1,), "0x0.0p+0"),
        ((1,), "0x0.0p+0"),
    ],
    2: [
        (None, "0x1.a1780440f710fp-4"),
        (None, "0x1.a1780440f711dp-4"),
        ((1, 2), "0x1.75f026d3e5923p-55"),
        ((1, 2), "0x0.0p+0"),
    ],
    3: [
        (None, "0x1.279585bbd32dcp-9"),
        (None, "0x1.279585bbd32f8p-9"),
        ((1, 2, 3), "0x1.31d67861ba789p-56"),
        ((1, 2, 3), "0x0.0p+0"),
    ],
    4: [
        (None, "0x1.de78114657c46p-9"),
        (None, "0x1.de78114657c43p-9"),
        ((1, 2, 3, 4), "0x1.c80f6ae125a10p-59"),
        ((1, 2, 3, 4), "0x0.0p+0"),
    ],
    5: [
        (None, "0x1.99aa8709e971fp-12"),
        (None, "0x1.99aa8709e971fp-12"),
        ((1, 2, 3, 4, 5), "0x1.4081a41f60ff0p-59"),
        ((1, 2, 3, 4, 5), "0x0.0p+0"),
    ],
    6: [
        (None, "0x1.705102b6f3c89p-13"),
        (None, "0x1.705102b6f3c51p-13"),
        ((1, 2, 3, 4, 5, 6), "0x1.1143e5f35a22ap-59"),
        ((1, 2, 3, 4, 5, 6), "0x0.0p+0"),
    ],
    7: [
        (None, "0x1.357d60bfabb96p-26"),
        (None, "0x1.357d60bfabacfp-26"),
        ((1, 2, 3, 4, 5, 6, 7), "0x1.3c31580441150p-75"),
        ((1, 2, 3, 4, 5, 6, 7), "0x0.0p+0"),
    ],
    8: [
        ((1, 2, 3, 6, 7, 8, 9, 10), "0x1.c8c779e0bd9f6p-39"),
        ((1, 2, 3, 6, 7, 8, 9, 10), "0x1.c8c779e0bda1ep-39"),
        ((1, 2, 3, 4, 5, 6, 7, 8), "0x1.7e3844f599152p-77"),
        ((1, 2, 3, 4, 5, 6, 7, 8), "0x0.0p+0"),
    ],
    9: [
        (None, "0x1.5f26b8e30a5dcp-26"),
        (None, "0x1.5f26b8e30a41fp-26"),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9), "0x1.efd65e5fdc21cp-76"),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9), "0x0.0p+0"),
    ],
    10: [
        (None, "0x1.15366fca725d1p-32"),
        (None, "0x1.15366fca72da9p-32"),
        ((0, 1, 2, 5, 6, 7, 8, 9, 10, 12), "0x1.6a5da8ff4b45dp-89"),
        ((0, 1, 2, 5, 6, 7, 8, 9, 10, 12), "0x0.0p+0"),
    ],
}


class TestPinnedBits:
    """Certificates bit for bit as recorded, for trailing blocks of n = 0..5."""

    @pytest.mark.parametrize("d", sorted(PINNED))
    def test_certificate_bits_are_the_recorded_ones(self, d):
        got = []
        for singular in (False, True):
            m, det_a = _pinned_orbit(d, singular)
            for shift_det in (None, det_a):
                certificate = full_spark(m, shift_det=shift_det)
                got.append((certificate.witness, float(certificate.min_abs_det).hex()))
        assert got == PINNED[d]


class TestPlans:
    """Index tables kept per shape between ``full_spark`` calls."""

    @pytest.fixture(autouse=True)
    def no_plans(self, monkeypatch):
        monkeypatch.setattr(vandermonde, "_plans", OrderedDict())

    @pytest.mark.parametrize("shifted", [False, True], ids=["plain", "shifted"])
    def test_warm_certificate_is_the_cold_one_bit_for_bit(self, shifted):
        for name, m, det_a in _shift_cases():
            shift_det = det_a if shifted else None
            vandermonde._plans.clear()
            cold = full_spark(m, shift_det=shift_det)
            assert vandermonde._plans, name
            assert _bits(full_spark(m, shift_det=shift_det)) == _bits(cold), name

    def test_same_shape_reuses_the_plan(self, monkeypatch):
        first, second = (make_instance("jordan", 6, 12, seed=s).build_frame() for s in (0, 1))
        for shift_det in (None, np.linalg.det(first.operator)):
            full_spark(first.synthesis(), shift_det=shift_det)

        def unreachable(*args, **kwargs):
            raise AssertionError("a plan was built again")

        monkeypatch.setattr(vandermonde, "_combinations", unreachable)
        monkeypatch.setattr(vandermonde, "_shifts", unreachable)
        m, expected = second.synthesis(), full_spark_serial(second.synthesis())
        _assert_matches(full_spark(m), expected)
        _assert_matches(full_spark(m, shift_det=np.linalg.det(second.operator)), expected)

    def test_kept_arrays_are_read_only(self):
        _, m, det_a = _shift_cases()[0]
        plain = next(vandermonde._prefix_minors(m, 0))[0]
        shifted = next(vandermonde._shifted_minors(m, det_a))[0]
        for idx in (plain, shifted):
            with pytest.raises(ValueError, match="read-only"):
                idx[0, 0] = 1
        kept = [a for plan, _ in vandermonde._plans.values() for part in plan for a in part]
        assert len(vandermonde._plans) == 3 and not any(a.flags.writeable for a in kept)

    @pytest.mark.parametrize(
        "d, shifted, most",
        # the bytes the plans took with (N, d) index tables and intp offsets
        [(8, True, 1_601_352), (10, True, 28_128_552), (10, False, 23_780_048)],
        ids=["orbit-8/16", "orbit-10/20", "plain-10/20"],
    )
    def test_plan_bytes_stay_bounded_and_are_built_once(self, monkeypatch, d, shifted, most):
        frame = make_instance("random-diag", d, 2 * d, seed=0).build_frame()
        m = frame.synthesis()
        shift_det = np.linalg.det(frame.operator) if shifted else None
        first = full_spark(m, shift_det=shift_det)
        assert sum(size for _, size in vandermonde._plans.values()) <= most

        def unreachable(*args, **kwargs):
            raise AssertionError("a plan was built again")

        monkeypatch.setattr(vandermonde, "_combinations", unreachable)
        monkeypatch.setattr(vandermonde, "_shifts", unreachable)
        assert _bits(full_spark(m, shift_det=shift_det)) == _bits(first)

    def test_least_recently_used_plan_goes_first(self, monkeypatch):
        shapes = [classical(np.arange(1, d + 1) / d, L) for d, L in ((3, 6), (3, 7), (4, 8))]
        sizes = {}
        for m in shapes:
            full_spark(m)
            (key,) = set(vandermonde._plans) - set(sizes)
            sizes[key] = vandermonde._plans[key][1]
        first, _, last = sizes
        # room for any two of the three plans
        monkeypatch.setattr(vandermonde, "_PLAN_BYTES", sum(sizes.values()) - 1)
        vandermonde._plans.clear()
        for m in (shapes[0], shapes[1], shapes[0], shapes[2]):
            full_spark(m)
        assert list(vandermonde._plans) == [first, last]

    def test_plan_over_the_bound_is_built_per_call(self, monkeypatch):
        calls = []
        combinations = vandermonde._combinations

        def counted(columns, width):
            calls.append(width)
            return combinations(columns, width)

        monkeypatch.setattr(vandermonde, "_combinations", counted)
        small, large = classical(np.arange(1, 4) / 3, 6), classical(np.arange(1, 5) / 4, 8)
        full_spark(small)
        ((kept, (_, size)),) = vandermonde._plans.items()
        monkeypatch.setattr(vandermonde, "_PLAN_BYTES", size)
        calls.clear()
        certificates = [full_spark(large) for _ in range(2)]
        # two tables (heads and tails) per call; the kept plan stays
        assert len(calls) == 4 and list(vandermonde._plans) == [kept]
        assert _bits(certificates[0]) == _bits(certificates[1])
        _assert_matches(certificates[0], full_spark_serial(large))


def _family(L, d, first):
    """The subsets that ``_prefix_minors(m, first)`` visits, in lexicographic
    order: every d-subset for ``first=0``, those with column 0 for ``first=1``."""
    rest = itertools.combinations(range(first, L), d - first)
    return np.array([(0,) * first + r for r in rest], dtype=np.intp).reshape(-1, d)


def _prefix(m, first):
    """Every subset of one family, one per row, and its |det| from the prefix-QR kernel."""
    parts = list(vandermonde._prefix_minors(m, first))
    return np.concatenate([idx for idx, _ in parts], axis=1).T, np.concatenate([a for _, a in parts])


class TestAnchoredMinors:
    """The prefix QR and closed-form trailing determinant of the plain
    (``first=0``) and anchored (``first=1``) minors against LU."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_each_minor_matches_lu(self, d):
        # k = ceil(d/2): k == d at d = 1; (d - k) x (d - k) trailing blocks,
        # 1 x 1 at d = 2, 3 up to 4 x 4 at 8, 9 and 5 x 5 (LU) at 10
        rng = np.random.default_rng(45 + d)
        L = d + 4
        m = rng.standard_normal((d, L)) + 1j * rng.standard_normal((d, L))
        m *= 10.0 ** rng.uniform(-3.0, 3.0, L)
        cases = [m]
        if d > 1:
            cases.append(_orbit("jordan", d, 0))
        for m in cases:
            norms = np.linalg.norm(m, axis=0)
            for first in (0, 1):
                visited = []
                # LU chunk by chunk: the plain family of jordan 10/20 has C(20, 10) minors
                for columns, absdet in vandermonde._prefix_minors(m, first):
                    idx = columns.T  # one subset per row
                    want = np.abs(np.linalg.det(m[:, idx].transpose(1, 0, 2)))
                    bad = np.abs(absdet - want) > 1e-13 * np.prod(norms[idx], axis=1)
                    assert not bad.any(), [tuple(row) for row in idx[bad]]
                    visited.append(idx)
                assert np.array_equal(np.concatenate(visited), _family(m.shape[1], d, first))

    @pytest.mark.parametrize("per_chunk", [5, 7])
    def test_prefix_group_split_across_chunks(self, monkeypatch, per_chunk):
        frame = make_instance("jordan", 6, 12, seed=0).build_frame()
        m = frame.synthesis()
        families = ((0, None), (1, np.linalg.det(frame.operator)))
        wholes = [full_spark(m, shift_det=shift_det) for _, shift_det in families]
        assert all(len(list(vandermonde._prefix_minors(m, first))) == 1 for first, _ in families)
        _subsets_per_chunk(monkeypatch, 6, per_chunk)
        for (first, shift_det), whole in zip(families, wholes):
            chunks = [idx.T for idx, _ in vandermonde._prefix_minors(m, first)]
            assert len(chunks) == math.ceil(math.comb(12 - first, 6 - first) / per_chunk)
            # k = 3: some chunk ends inside the block of a prefix (a, b, c)
            assert any(np.array_equal(a[-1, :3], b[0, :3]) for a, b in zip(chunks, chunks[1:]))
            assert _fields(full_spark(m, shift_det=shift_det)) == _fields(whole)

    @pytest.mark.parametrize(
        "name, A",
        [
            # A^2 phi = 0: columns 2.. vanish, so prefixes (0, 1, b) hold a zero column
            ("zero", np.diag([1.0, 0.0, 0.0, 0.0], 1)),
            # A^2 = I: column 2 repeats column 0 inside the prefix (0, 1, 2)
            ("repeated", np.eye(5)[[1, 0, 3, 2, 4]]),
        ],
    )
    def test_rank_deficient_prefix(self, name, A):
        phi = np.array([1 + 1j, 0.5 - 1j, 1.0, 0.7j, -0.4 + 0.2j])
        m = DynamicalFrame(A, phi, 9).synthesis()
        norms = np.linalg.norm(m, axis=0)
        expected = full_spark_serial(m)
        assert expected.witness == (0, 1, 2, 3, 4)
        for first, shift_det in ((0, None), (1, np.linalg.det(A))):
            idx, absdet = _prefix(m, first)
            block = np.all(idx[:, :3] == (0, 1, 2), axis=1)
            assert block.sum() == math.comb(6, 2)
            if name == "zero":
                assert np.all(absdet[block] == 0.0)
            else:
                assert np.all(absdet[block] <= 1e-15 * np.prod(norms[idx[block]], axis=1))
            _assert_matches(full_spark(m, shift_det=shift_det), expected, first)


class TestErrorBound:
    """Each factored minor within ``16 d u`` of its column-norm product
    (u = 2^-53) of the exact determinant of the stored float64 minor."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_sampled_minors_against_the_exact_determinant(self, d):
        rng = np.random.default_rng(60 + d)
        for m in (_orbit("random-diag", d, 0), _pinned_orbit(d, True)[0]):
            norms = np.linalg.norm(m, axis=0)
            for first in (0, 1):
                idx, absdet = _prefix(m, first)
                for row in rng.choice(len(idx), size=min(10, len(idx)), replace=False):
                    exact = math.hypot(*map(float, exact_det(m[:, idx[row]])))
                    bound = 16 * d * 2.0**-53 * np.prod(norms[idx[row]])
                    assert abs(absdet[row] - exact) <= bound, (first, tuple(idx[row]))


def _stacked_tail_dets(t):
    """``_tail_dets`` on an (N, n, n) stack laid out as one prefix per block:
    row i of block p is column i projected by prefix p, and every subset's
    tail is columns 0..n-1 of its own prefix."""
    N, n, _ = t.shape
    group = np.arange(N)
    tails = np.repeat(np.arange(n)[:, None], N, axis=1)
    offsets = vandermonde._offsets(group, tails, n)
    pairs = np.array(np.triu_indices(n if n in (3, 4) else 0, 1))
    return vandermonde._tail_dets(t.transpose(0, 2, 1), offsets, pairs)


class TestTailDet:
    """The closed-form determinants of the trailing blocks against LU."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_matches_lu(self, n):
        rng = np.random.default_rng(70 + n)
        t = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n))
        t *= 10.0 ** rng.uniform(-3.0, 3.0, (300, 1, n))
        got = _stacked_tail_dets(t)
        assert got.shape == (300,)
        norms = np.prod(np.linalg.norm(t, axis=1), axis=1)
        assert np.all(np.abs(got - np.linalg.det(t)) <= 1e-13 * norms)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_repeated_row_gives_exact_zero(self, n):
        # rows of a trailing block are a subset's projected columns; n = 3
        # and 4 read their 2 x 2 minors from the per-prefix tables
        rng = np.random.default_rng(80 + n)
        t = rng.standard_normal((50, n, n)) + 1j * rng.standard_normal((50, n, n))
        for i, j in itertools.combinations(range(n), 2):
            u = t.copy()
            u[:, j] = u[:, i]
            assert np.all(_stacked_tail_dets(u) == 0.0), (i, j)

    @pytest.mark.parametrize(
        "d, L, a, b",
        [(4, 8, 5, 7), (4, 10, 5, 9), (6, 10, 5, 7), (6, 11, 4, 10), (8, 14, 6, 13)],
    )
    def test_repeated_column_fails_below_the_cut(self, d, L, a, b):
        # BLAS may round the two projected copies of a column differently,
        # so the minors holding both copies need not be exactly 0; they
        # still scale far below the cut, and the verdict names them
        for seed in range(3):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((d, L)) + 1j * rng.standard_normal((d, L))
            m[:, b] = m[:, a]
            certificate = full_spark(m)
            assert not certificate.full_spark, seed
            assert certificate.witness == (*range(d - 2), a, b), seed
            idx, absdet = _prefix(m, 0)
            both = np.any(idx == a, axis=1) & np.any(idx == b, axis=1)
            scaled = absdet[both] / np.prod(np.linalg.norm(m, axis=0)[idx[both]], axis=1)
            assert both.sum() == math.comb(L - 2, d - 2), seed
            assert np.all(scaled < vandermonde.DEFAULT_SPARK_TOL), seed


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: vandermonde.SparkCertificate(True, (0, 1), None),
            "a passing certificate cannot carry a witness",
            id="passing-with-witness",
        ),
        pytest.param(
            lambda: vandermonde.SparkCertificate(False, None, 0.0),
            "a failing certificate must carry a witness",
            id="failing-without-witness",
        ),
        pytest.param(lambda: classical([1.0, 2.0], 0), "length must be >= 1", id="classical"),
        pytest.param(
            lambda: second_kind([1.0, 2.0], (1, 1), 0), "length must be >= 1", id="second-kind"
        ),
    ],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
