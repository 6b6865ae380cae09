import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynphase.frames
from dynphase import (
    DimensionMismatchError,
    DynamicalFrame,
    JordanSpec,
    SparkCertificate,
    analyze,
    assemble,
    build,
    circulant,
    circulant_frame,
    classical,
    dft_matrix,
    frame_criterion,
    full_spark,
    full_spark_criterion,
    generator_coordinates,
    harmonic_frame,
    second_kind,
)
from dynphase.instances import make_instance
from dynphase.serialization import json_to_jordan_spec
from oracles import (
    eigendecompose,
    exact_det,
    hankel_of,
    jordan_power,
    orbit_naive,
    orbit_rank,
    random_distinct,
    random_unitary,
    spark_by_enumeration,
)


#: Lengths 1, 2, 2^k and 2^k + 1: the first block, a block that squares, and
#: a last block that reuses the power before the last square.
POWER_LENGTHS = (1, 2, 4, 5, 16, 17, 32, 33)

#: Largest relative column error ``|v_l - w_l| / |w_l|`` against an oracle.
#: On the operators below the squaring build reaches 1.6e-13 and the
#: step-by-step ``A @ v`` loop 1.1e-13 (both on the single 4 x 4 Jordan
#: block at L = 33); over 20 seeds a 6 x 6 block at L = 33 reached 4.4e-13
#: and 4.6e-13. So 1e-11 leaves a margin of 20 or more, while an off-by-one
#: power, whose columns differ from their neighbours by over half their
#: norm here, misses it by ten orders.
COLUMN_RTOL = 1e-11

#: Largest relative column error of a long orbit of one 6 x 6 Jordan block
#: (L = 64, 65). Each square rounds relative to ``|A^s|^2``, which exceeds
#: ``|A^2s|`` by a factor that grows with s on a Jordan block: over seeds
#: 0..19 the squaring build reaches about 1e-9, and the step-by-step loop
#: about 5e-11. The bound leaves a factor of five over the former.
LONG_JORDAN_RTOL = 5e-9

#: Largest relative entry error between two orders of the same few products.
ROUNDING_RTOL = 4 * np.finfo(float).eps


def assert_columns_close(V, W):
    assert V.shape == W.shape
    error = np.linalg.norm(V - W, axis=0) / np.linalg.norm(W, axis=0)
    assert np.max(error) <= COLUMN_RTOL
    if W.shape[1] > 1:  # the tolerance tells neighbouring powers apart
        shifted = np.linalg.norm(V[:, 1:] - W[:, :-1], axis=0) / np.linalg.norm(W[:, :-1], axis=0)
        assert np.min(shifted) > 1e6 * COLUMN_RTOL


def sequential_orbit(a, phi, length):
    """The step-by-step recurrence ``v_(l+1) = A @ v_l``, stacked as columns."""
    vectors = [np.asarray(phi, dtype=complex)]
    for _ in range(length - 1):
        vectors.append(np.asarray(a, dtype=complex) @ vectors[-1])
    return np.column_stack(vectors)


def rotation(theta: float) -> np.ndarray:
    return np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )


def diagonalizable_frame(rng, dim, length, values=None, coords=None):
    values = random_distinct(rng, dim) if values is None else values
    basis = random_unitary(rng, dim)
    coords = (
        rng.uniform(0.4, 1.2, dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        if coords is None
        else coords
    )
    operator = (basis * values) @ basis.conj().T
    generator = basis @ coords
    return build(operator, generator, length), values, coords


class TestBuild:
    def test_identity_operator(self):
        phi = np.array([1.0, 2.0j, -1.0])
        frame = build(np.eye(3), phi, 4)
        for v in frame.synthesis().T:
            assert np.allclose(v, phi)

    def test_quarter_turn_orbit(self):
        frame = build(rotation(np.pi / 2), np.array([1.0, 0.0]), 4)
        expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        for v, e in zip(frame.synthesis().T, expected):
            assert np.allclose(v, e, atol=1e-15)

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(50)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        frame = build(a, phi, 6)
        expected = orbit_naive(a, phi, 6)
        assert np.max(np.abs(frame.synthesis() - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build(np.eye(3), np.array([1.0, 0.0]), 3)

    def test_constructor_computes_the_orbit(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        frame = DynamicalFrame(a, phi, 7)
        assert np.array_equal(frame.synthesis(), build(a, phi, 7).synthesis())
        assert not frame.synthesis().flags.writeable

    def test_vectors_are_read_only_columns(self):
        frame = build(rotation(0.3), np.array([1.0, 2.0]), 5)
        assert len(frame.synthesis().T) == 5
        for l, v in enumerate(frame.synthesis().T):
            assert np.array_equal(v, frame.synthesis()[:, l])
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 0.0

    @pytest.mark.parametrize("length", POWER_LENGTHS)
    @pytest.mark.parametrize("mults", [(1, 1, 1, 1), (3, 1, 2), (4,), (2, 2, 2, 2)])
    def test_columns_match_the_jordan_power_oracle(self, mults, length):
        rng = np.random.default_rng(100 * sum(mults) + length)
        spec = JordanSpec(random_distinct(rng, len(mults)), mults, random_unitary(rng, sum(mults)))
        coords = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
        phi = spec.basis @ coords
        frame = build(assemble(spec), phi, length)
        # S J^l S^{-1} phi, with S unitary so that S^{-1} phi is coords
        expected = np.column_stack(
            [spec.basis @ (jordan_power(spec, l) @ coords) for l in range(length)]
        )
        assert_columns_close(frame.synthesis(), expected)
        assert frame.synthesis().flags.c_contiguous and not frame.synthesis().flags.writeable

    @pytest.mark.parametrize("length", [64, 65])
    def test_long_jordan_orbit_matches_the_jordan_power_oracle(self, length):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spec = JordanSpec(random_distinct(rng, 1), (6,), random_unitary(rng, 6))
            coords = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            frame = build(assemble(spec), spec.basis @ coords, length)
            expected = np.column_stack(
                [spec.basis @ (jordan_power(spec, l) @ coords) for l in range(length)]
            )
            error = np.linalg.norm(frame.synthesis() - expected, axis=0)
            worst = max(worst, float(np.max(error / np.linalg.norm(expected, axis=0))))
        assert worst <= LONG_JORDAN_RTOL

    @pytest.mark.parametrize("length", POWER_LENGTHS)
    def test_columns_match_the_eigendecomposition_oracle(self, length):
        rng = np.random.default_rng(length)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = a / np.max(np.abs(np.linalg.eigvals(a)))
        phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        values, vectors = eigendecompose(a)
        coords = np.linalg.solve(vectors, phi)
        expected = np.column_stack([vectors @ (values**l * coords) for l in range(length)])
        assert_columns_close(build(a, phi, length).synthesis(), expected)

    def test_nilpotent_orbit_ends_in_exact_zeros(self):
        rng = np.random.default_rng(55)
        nilpotent = np.triu(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)), 1)
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        V = build(nilpotent, phi, 17).synthesis()
        assert_columns_close(V[:, :5], orbit_naive(nilpotent, phi, 5))
        assert not np.any(V[:, 5:])  # A^5 = 0 exactly, and so is every power after it

    @pytest.mark.parametrize(
        "operator, generator, length",
        [
            # A^2 = (1e400, ...) overflows, yet every column A^l phi is finite
            (np.array([[1e200, 1.0], [0.0, 2e200]]), np.full(2, 1e-300), 4),
            # A^2 = (1e-400, ...) underflows to zero, yet A^2 phi is about 4e-100
            (np.array([[1e-200, 1e-200], [0.0, 2e-200]]), np.full(2, 1e300), 4),
            # A^2 = diag(1e200, 1) squares to an overflow: the rest goes in pairs of columns
            (np.diag([1e100, 1.0]), np.array([1e-300, 1.0]), 7),
        ],
        ids=["overflow", "underflow", "overflow-later"],
    )
    def test_finite_orbit_whose_powers_do_not_square_is_built(self, operator, generator, length):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = build(operator, generator, length)
        expected = sequential_orbit(operator, generator, length)
        np.testing.assert_allclose(frame.synthesis(), expected, rtol=ROUNDING_RTOL, atol=0)

    def test_orbit_vectors_cannot_be_supplied(self):
        phi = np.array([1.0, 0.0])
        with pytest.raises(TypeError):
            DynamicalFrame(np.eye(2), phi, 2, (phi, phi))

    @pytest.mark.parametrize(
        "operator, generator, length, error",
        [
            (np.eye(2), [1.0, 0.0], 0, ValueError),
            (np.eye(3), [1.0, 0.0], 2, DimensionMismatchError),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), [1.0, 0.0], 2, ValueError),
        ],
        ids=["zero-length", "dimension-mismatch", "nan-operator"],
    )
    def test_invalid_input_rejected(self, operator, generator, length, error):
        with pytest.raises(error):
            DynamicalFrame(operator, np.array(generator), length)

    def test_overflowing_orbit_names_its_first_non_finite_column(self):
        # column 2, A^2 phi = (1e400, 1), overflows; columns 0 and 1 are finite
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"^orbit column A\^2 phi is not finite"):
                build(np.diag([1e200, 1.0]), np.ones(2), 3)
            build(np.diag([1e200, 1.0]), np.ones(2), 2)  # still finite

    @pytest.mark.parametrize(
        "kind, dim, length",
        [("harmonic", 6, 12), ("random-diag", 8, 20), ("jordan", 8, 20), ("circulant", 5, 9)],
    )
    def test_conjugate_rows_are_kept_once_and_keep_the_coefficient_bits(self, kind, dim, length):
        frame = make_instance(kind, dim, length, seed=0).build_frame()
        rows = frame._rows
        assert frame._rows is rows and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        fresh = frame.synthesis().conj().T
        assert rows.strides == fresh.strides and np.array_equal(rows, fresh)
        rng = np.random.default_rng(dim)
        for _ in range(4):
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert np.array_equal(frame.coefficients(x), fresh @ x)
        assert frame._rows is rows


class TestAnalyze:
    def test_too_short_orbit_is_not_a_frame(self):
        frame = build(np.eye(3), np.array([1.0, 0.0, 0.0]), 2)
        analysis = analyze(frame)
        assert not analysis.is_frame
        assert analysis.lower_bound == 0.0

    def test_orthonormal_orbit_is_parseval(self):
        shift = circulant(np.array([0.0, 1.0, 0.0]))
        frame = build(shift, np.array([1.0, 0.0, 0.0]), 3)
        analysis = analyze(frame)
        assert analysis.is_frame
        assert analysis.lower_bound == pytest.approx(1.0)
        assert analysis.upper_bound == pytest.approx(1.0)

    def test_rotation_pair_spans(self):
        frame = build(rotation(np.pi / 4), np.array([1.0, 0.0]), 2)
        assert analyze(frame).is_frame

    def test_bounds_past_the_range_read_inf(self):
        # sigma_min and sigma_max near 1e160 * sqrt(8): both squares leave the
        # float64 range, and the verdict, taken from sigma, stays a frame
        frame = build(np.diag(np.exp(2j * np.pi * np.arange(4) / 8)), 1e160 * np.ones(4), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analysis = analyze(frame, spark=True)
        assert analysis.is_frame
        assert (analysis.lower_bound, analysis.upper_bound) == (np.inf, np.inf)
        assert analysis.spark.full_spark

    def test_spark_on_demand(self):
        frame = harmonic_frame(3, 5)
        assert analyze(frame).spark is None
        analysis = analyze(frame, spark=True)
        assert analysis.spark is not None and analysis.spark.full_spark

    def test_options_are_keyword_only(self):
        from dynphase.instances import random_signal_for

        frame = harmonic_frame(3, 5)
        # a positional tolerance must not land in spark, budget or real
        with pytest.raises(TypeError):
            analyze(frame, 1e-10)
        with pytest.raises(TypeError):
            full_spark(frame.synthesis(), 1e-10)
        with pytest.raises(TypeError):
            random_signal_for(frame, np.random.default_rng(0), 1e-3)


class TestRowSvdCache:
    @pytest.mark.parametrize(
        "kind, dim, length",
        [("harmonic", 8, 20), ("random-diag", 8, 20), ("jordan", 16, 24), ("circulant", 5, 9)],
    )
    def test_bounds_match_the_synthesis_singular_values(self, kind, dim, length):
        from dynphase.instances import make_instance

        frame = make_instance(kind, dim, length, seed=0).build_frame()
        sv = np.linalg.svd(frame.synthesis(), compute_uv=False)
        analysis = analyze(frame)
        assert analysis.upper_bound == pytest.approx(sv[0] ** 2, rel=1e-9)
        assert analysis.lower_bound == pytest.approx(sv[-1] ** 2, rel=1e-9)
        assert analysis.is_frame is bool(sv[-1] > dynphase.frames.FRAME_RTOL * sv[0])

    @pytest.mark.parametrize(
        "frame",
        [
            build(np.eye(3), np.array([1.0, 0.0, 0.0]), 2),  # shorter than the dimension
            build(np.diag([1.0, 0.5j, -0.8]), np.array([1.0, 1.0, 0.0]), 5),  # a dead direction
        ],
    )
    def test_non_frames_stay_non_frames(self, frame):
        analysis = analyze(frame)
        sv = np.linalg.svd(frame.synthesis(), compute_uv=False)
        assert not analysis.is_frame
        assert analysis.upper_bound == pytest.approx(sv[0] ** 2, rel=1e-9)

    def test_one_read_only_factorization_per_frame(self, monkeypatch):
        from dynphase import MeasurementConfig, measure, recover_full_spark
        from dynphase.instances import random_signal_for

        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        monkeypatch.setattr(np.linalg, "lstsq", None)  # full row sets never reach it
        harmonic_frame.cache_clear()  # an earlier test may have factored the shared frame
        frame = harmonic_frame(4, 6)
        config = MeasurementConfig()
        ms = measure(random_signal_for(frame, np.random.default_rng(3)), frame, config)
        analyze(frame)
        factors = frame._row_svd
        for _ in range(2):
            recover_full_spark(ms, frame, config)
        assert frame._row_svd is factors
        assert len(calls) == 1
        Z, s, Wh = factors
        assert (Z.shape, s.shape, Wh.shape) == ((4, 4), (4,), (4, 6))
        for a in factors:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("kind, dim, length", [("harmonic", 4, 6), ("random-diag", 8, 20)])
    def test_pseudo_inverse_factors_kept_once_and_read_only(self, kind, dim, length):
        frame = make_instance(kind, dim, length, seed=0).build_frame()
        factors = frame._row_svd
        assert frame._row_svd is factors
        Z, s, Wh = factors
        W, sv, Zh = np.linalg.svd(frame._rows, full_matrices=False)
        rank = Z.shape[1]
        assert rank == Wh.shape[0] == np.linalg.matrix_rank(frame._rows) == dim
        assert np.array_equal(s, sv)
        for got, want in ((Z, Zh[:rank].conj().T), (Wh, W[:, :rank].conj().T)):
            assert got.strides == want.strides and np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0


def assert_same_certificate(shifted, direct):
    """``analyze`` scales minors by powers of det(A): equal verdicts, rounding-close minima."""
    assert (shifted.full_spark, shifted.witness) == (direct.full_spark, direct.witness)
    assert abs(shifted.min_abs_det - direct.min_abs_det) <= 1e-15


class TestAnalyzeStructuralSpark:
    @pytest.fixture
    def enumerations(self, monkeypatch):
        """Records the matrices ``analyze`` hands to ``full_spark``."""
        seen = []

        def spy(matrix, **kwargs):
            seen.append(matrix)
            return full_spark(matrix, **kwargs)

        monkeypatch.setattr(dynphase.frames, "full_spark", spy)
        return seen

    def test_harmonic_certified_without_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full_spark must not run for a harmonic orbit")

        monkeypatch.setattr(dynphase.frames, "full_spark", refuse)
        certificate = analyze(harmonic_frame(10, 30), spark=True).spark
        assert certificate == SparkCertificate(True, None, None)

    @pytest.mark.parametrize(
        "values", [2.0 ** np.arange(8), np.arange(1.0, 9.0)], ids=["geometric", "positive"]
    )
    def test_provably_full_spark_diagonal_passes(self, values, enumerations):
        # enumeration calls both of these orbits failing: their scaled minors
        # fall to 2.5e-88 and 5.8e-36, far below the 1e-10 cut
        certificate = analyze(build(np.diag(values), np.ones(8), 16), spark=True).spark
        assert certificate == SparkCertificate(True, None, None)
        assert enumerations == []

    def test_repeating_root_of_unity_ratio_enumerates(self, enumerations):
        values = np.exp(2j * np.pi / 3) ** np.arange(3)
        frame = build(np.diag(values), np.ones(3), 6)
        certificate = analyze(frame, spark=True).spark
        assert len(enumerations) == 1
        assert not certificate.full_spark
        assert certificate.witness == (0, 1, 3)
        assert_same_certificate(certificate, full_spark(frame.synthesis()))

    def test_zero_generator_entry_enumerates(self, enumerations):
        frame = build(np.diag([0.5, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]), 6)
        certificate = analyze(frame, spark=True).spark
        assert len(enumerations) == 1
        assert certificate == SparkCertificate(False, (0, 1, 2), 0.0)

    def test_overflowing_determinant_factors_every_minor(self, monkeypatch):
        # det(A) = 2e400 overflows while the orbit stays finite
        frame = build(np.array([[1e200, 1.0], [0.0, 2e200]]), np.full(2, 1e-300), 3)
        shifts = []

        def spy(matrix, **kwargs):
            shifts.append(kwargs["shift_det"])
            return full_spark(matrix, **kwargs)

        monkeypatch.setattr(dynphase.frames, "full_spark", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            certificate = analyze(frame, spark=True).spark
        # analyze hands the overflowed determinant over as it is; full_spark ignores it
        assert len(shifts) == 1 and np.isinf(shifts[0])
        assert_same_certificate(certificate, full_spark(frame.synthesis()))

    def test_structural_verdict_decided_once_per_frame(self, monkeypatch, enumerations):
        calls = []
        criterion = dynphase.frames.frame_criterion
        monkeypatch.setattr(
            dynphase.frames, "frame_criterion", lambda *a: calls.append(a) or criterion(*a)
        )
        frame = build(np.diag(2.0 ** np.arange(4)), np.ones(4), 8)
        first = analyze(frame, spark=True)
        assert analyze(frame, spark=True) == first
        assert first.spark == SparkCertificate(True, None, None)
        assert len(calls) == 1 and enumerations == []

    def test_dense_operator_enumerates(self, enumerations):
        frame, _, _ = diagonalizable_frame(np.random.default_rng(61), 4, 8)
        certificate = analyze(frame, spark=True).spark
        assert len(enumerations) == 1
        assert_same_certificate(certificate, full_spark(frame.synthesis()))
        assert certificate.min_abs_det is not None


class TestIntegerOrbitSpark:
    """A full-spark verdict survives exact arithmetic on integer orbits.

    Only that direction: ``analyze`` refuses some orbits that are exactly
    full spark (ROADMAP 12a).
    """

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_certified_orbit_has_no_singular_minor(self, d, data):
        ints = st.integers(-2, 2)
        A = np.reshape(data.draw(st.lists(ints, min_size=d * d, max_size=d * d)), (d, d))
        phi = np.array(data.draw(st.lists(ints, min_size=d, max_size=d)))
        length = data.draw(st.integers(d, 2 * d))
        if analyze(build(A, phi, length), spark=True).spark.full_spark:
            # entries stay below 10^10, so the int64 orbit is exact
            orbit = np.column_stack([np.linalg.matrix_power(A, l) @ phi for l in range(length)])
            for subset in itertools.combinations(range(length), d):
                assert exact_det(orbit[:, subset]) != (0, 0), subset


class TestFrameCriterionDiagonalizable:
    def test_repeated_eigenvalue(self):
        values = np.array([1.0, 1.0, 2.0])
        coords = np.ones(3)
        assert not frame_criterion(values, coords)

    def test_zero_coordinate(self):
        values = np.array([1.0, 2.0, 3.0])
        assert not frame_criterion(values, np.array([1.0, 0.0, 1.0]))

    def test_every_diagonalizable_verdict_shares_one_threshold(self):
        # a coordinate ratio of 5e-10 sits between the relative cuts 1e-10 and 1e-9
        values = np.exp(2j * np.pi / 8) ** np.arange(4)
        coords = np.array([1.0, 1.0, 1.0, 5e-10])
        analysis = analyze(build(np.diag(values), coords, 8), spark=True)
        assert analysis.is_frame
        assert frame_criterion(values, coords)
        assert full_spark_criterion(values, coords, 8).full_spark
        assert analysis.spark.full_spark
        F = dft_matrix(4)
        _, criterion = circulant_frame(np.linalg.solve(F, values), np.linalg.solve(F, coords), 8)
        assert criterion

    def test_random_positive_case_agrees_with_rank(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            frame, values, coords = diagonalizable_frame(rng, 4, 4)
            assert frame_criterion(values, coords)
            assert analyze(frame).is_frame


def jordan_criterion(spec, phi):
    return frame_criterion(spec.eigenvalues, generator_coordinates(spec, phi), spec.multiplicities)


class TestFrameCriterionJordan:
    def test_shared_eigenvalue_across_blocks(self):
        rng = np.random.default_rng(52)
        spec = JordanSpec(np.array([0.9, 0.9]), (2, 2), random_unitary(rng, 4))
        phi = spec.basis @ np.ones(4)
        assert not jordan_criterion(spec, phi)
        assert orbit_rank(assemble(spec), phi, 4) < 4

    def test_generator_missing_a_chain(self):
        rng = np.random.default_rng(53)
        spec = JordanSpec(np.array([0.9, -0.8]), (2, 1), random_unitary(rng, 3))
        coords = np.array([1.0, 0.0, 1.0])  # kills the first block's leading vector
        assert not jordan_criterion(spec, spec.basis @ coords)

    def test_single_jordan_block_spans(self):
        spec = JordanSpec(np.array([0.7]), (3,), np.eye(3))
        phi = np.array([0.2, -0.4, 1.0], dtype=complex)
        assert jordan_criterion(spec, phi)
        assert orbit_rank(assemble(spec), phi, 3) == 3

    def test_agrees_with_rank_oracle_over_random_specs(self):
        rng = np.random.default_rng(54)
        for mults in [(1, 1), (2, 1), (3, 1, 2), (2, 2), (1, 1, 1, 1)]:
            d = sum(mults)
            values = random_distinct(rng, len(mults), gap=0.5)
            spec = JordanSpec(values, mults, random_unitary(rng, d))
            for _ in range(5):
                phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                verdict = jordan_criterion(spec, phi)
                assert verdict == (orbit_rank(assemble(spec), phi, d) == d)


class TestCirculantFrame:
    def test_shift_kernel_with_unit_generator(self):
        d = 4
        kernel = np.zeros(d, dtype=complex)
        kernel[1] = 1.0
        frame, criterion = circulant_frame(kernel, np.eye(d, dtype=complex)[:, 0], d)
        assert criterion
        assert np.allclose(frame.synthesis(), np.eye(d))

    def test_repeated_spectrum_fails(self):
        d = 3
        kernel = np.array([1.0, 0.0, 0.0], dtype=complex)  # DFT is all ones
        _, criterion = circulant_frame(kernel, np.ones(d, dtype=complex), d)
        assert not criterion

    def test_vanishing_generator_spectrum_fails(self):
        d = 3
        kernel = np.zeros(d, dtype=complex)
        kernel[1] = 1.0
        phi = np.ones(d, dtype=complex)  # DFT of the all-ones vector has zeros
        _, criterion = circulant_frame(kernel, phi, d)
        assert not criterion

    def test_criterion_agrees_with_frame_bounds(self):
        rng = np.random.default_rng(58)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            kernel = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            frame, criterion = circulant_frame(kernel, phi, d + 2)
            assert criterion == analyze(frame).is_frame


class TestHarmonicFrame:
    def test_small_orbit_values(self):
        frame = harmonic_frame(2, 4)
        expected = [(1, 1), (1, 1j), (1, -1), (1, -1j)]
        for v, e in zip(frame.synthesis().T, expected):
            assert np.allclose(v, e, atol=1e-12)

    def test_square_case_is_scaled_unitary(self):
        L = 5
        frame = harmonic_frame(5, L)
        gram = frame.synthesis() @ frame.synthesis().conj().T
        assert np.allclose(gram, L * np.eye(5), atol=1e-9)
        analysis = analyze(frame)
        assert analysis.lower_bound == pytest.approx(L)
        assert analysis.upper_bound == pytest.approx(L)

    def test_full_spark_by_enumeration(self):
        frame = harmonic_frame(4, 6)
        certificate = full_spark(frame.synthesis())
        assert certificate.full_spark
        ok, _ = spark_by_enumeration(frame.synthesis())
        assert ok

    def test_length_below_dim_rejected(self):
        with pytest.raises(ValueError):
            harmonic_frame(4, 3)

    def test_one_shared_frame_is_the_fresh_build(self):
        frame = harmonic_frame(5, 9)
        assert harmonic_frame(5, 9) is frame
        fresh = build(frame.operator, frame.generator, 9)
        for got, want in ((frame.synthesis(), fresh.synthesis()), (frame._rows, fresh._rows)):
            assert got.strides == want.strides and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes() and not got.flags.writeable

    def test_bound_evicts_the_least_recently_used_frame(self):
        bound = dynphase.frames._HARMONIC_FRAMES
        harmonic_frame.cache_clear()
        kept = {L: harmonic_frame(2, L) for L in range(2, 2 + bound)}
        assert harmonic_frame(2, 2) is kept[2]  # now the most recently used
        harmonic_frame(2, 2 + bound)  # one shape more than the bound
        assert harmonic_frame.cache_info().currsize == bound
        for L in range(4, 2 + bound):
            assert harmonic_frame(2, L) is kept[L]
        assert harmonic_frame(2, 2) is kept[2]
        assert harmonic_frame(2, 3) is not kept[3]  # the least recently used went

    @pytest.mark.parametrize("cached, call", [((4, 8), (4.0, 8)), ((1, 2), (True, 2))])
    def test_argument_types_are_still_checked_once_cached(self, cached, call):
        harmonic_frame(*cached)
        with pytest.raises(TypeError):
            harmonic_frame(*call)


class TestFullSparkCriterion:
    def test_positive_real_spectrum_short_circuits(self):
        values = np.array([0.5, 1.0, 1.7, 2.4])
        certificate = full_spark_criterion(values, np.ones(4), 8)
        assert certificate.full_spark
        assert certificate.min_abs_det is None  # no enumeration happened
        ok, _ = spark_by_enumeration(np.vander(values, 8, increasing=True))
        assert ok

    def test_zero_coordinate_fails_without_enumeration(self):
        values = np.array([0.5, 1.0, 2.0])
        certificate = full_spark_criterion(values, np.array([1.0, 0.0, 1.0]), 6)
        assert not certificate.full_spark
        assert certificate.witness == (0, 1, 2)
        assert certificate.min_abs_det == 0.0

    def test_geometric_spectrum_short_circuits(self):
        base = np.exp(2j * np.pi / 7)  # 7th root of unity, orbit length 6 stays clear
        values = base ** np.arange(3)
        certificate = full_spark_criterion(values, np.ones(3), 6)
        assert certificate.full_spark
        assert certificate.min_abs_det is None

    def test_root_of_unity_ratio_falls_back_to_enumeration(self):
        base = np.exp(2j * np.pi / 3)
        values = base ** np.arange(3)
        certificate = full_spark_criterion(values, np.ones(3), 6)
        assert not certificate.full_spark
        assert certificate.witness == (0, 1, 3)

    def test_zero_eigenvalue_is_not_full_spark_beyond_square(self):
        # a zero point zeroes every minor that skips the constant column
        values = np.array([0.0, 1.0, 2.0])
        certificate = full_spark_criterion(values, np.ones(3), 4)
        assert not certificate.full_spark
        assert certificate.witness == (1, 2, 3)

    def test_agrees_with_direct_orbit_enumeration(self):
        rng = np.random.default_rng(59)
        for trial in range(20):
            d = int(rng.integers(2, 5))
            L = int(rng.integers(d, 9))
            if trial % 2 == 0:
                values = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
                while np.min(
                    np.abs(values[:, None] - values[None, :])[~np.eye(d, dtype=bool)]
                    if d > 1
                    else np.array([1.0])
                ) < 0.1:
                    values = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            else:
                values = random_distinct(rng, d)
            coords = rng.uniform(0.4, 1.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            basis = random_unitary(rng, d)
            operator = (basis * values) @ basis.conj().T
            frame = build(operator, basis @ coords, L)
            certificate = full_spark_criterion(values, coords, L)
            direct, _ = spark_by_enumeration(frame.synthesis())
            assert certificate.full_spark == direct

    def test_coincident_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            full_spark_criterion(np.array([1.0, 1.0]), np.ones(2), 4)

    def test_overflowing_eigenvalue_product_factors_every_minor(self):
        # the product -6e330j overflows; the spectrum is not geometric, so
        # it is enumerated (so do the column norms: the minimum is NaN)
        values = np.array([1e110, 2e110j, -3e110])
        with np.errstate(over="ignore", invalid="ignore"):
            certificate = full_spark_criterion(values, np.ones(3), 3)
            direct = full_spark(classical(values, 3))
        np.testing.assert_equal(vars(certificate), vars(direct))

    def test_jordan_orbit_factors_through_confluent_vandermonde(self):
        # V = S blockdiag(hankel_of(c_j)) second_kind(values, m, L), c = S^{-1} phi
        rng = np.random.default_rng(62)
        for d in range(4, 10):
            cuts = np.sort(rng.choice(np.arange(1, d), size=2, replace=False))
            mults = tuple(int(m) for m in np.diff([0, *cuts, d]))
            spec = JordanSpec(random_distinct(rng, 3, gap=0.3), mults, random_unitary(rng, d))
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            orbit = build(assemble(spec), phi, 2 * d).synthesis()
            coords = generator_coordinates(spec, phi)
            hankel = np.zeros((d, d), dtype=complex)
            for sl in spec.block_slices():
                hankel[sl, sl] = hankel_of(coords[sl])
            rebuilt = spec.basis @ hankel @ second_kind(spec.eigenvalues, mults, 2 * d)
            error = np.linalg.norm(orbit - rebuilt, axis=0) / np.linalg.norm(orbit, axis=0)
            assert np.max(error) < 1e-13

    def test_jordan_criterion_matches_analyze_on_a_permuted_orbit(self):
        # S = I and c_j = e_last make V a row permutation of second_kind, so
        # both routes enumerate the same minors up to rounding
        for seed in range(5):
            instance = make_instance("jordan", 8, 16, seed=seed)
            drawn = json_to_jordan_spec(instance.frame_spec["jordan"])
            values, mults = drawn.eigenvalues, drawn.multiplicities
            coords = np.zeros(8, dtype=complex)
            coords[np.cumsum(mults) - 1] = 1.0
            operator = assemble(JordanSpec(values, mults, np.eye(8)))
            criterion = full_spark_criterion(values, coords, 16, mults)
            enumerated = analyze(build(operator, coords, 16), spark=True).spark
            assert criterion.full_spark == enumerated.full_spark
            assert criterion.witness == enumerated.witness
            assert abs(criterion.min_abs_det - enumerated.min_abs_det) <= 1e-15

    def test_dead_jordan_chain_fails_without_enumeration(self):
        # the last coordinate of the first block (size 2) is zero
        values = np.array([0.9, -0.5j, 1.1])
        coords = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        certificate = full_spark_criterion(values, coords, 8, (2, 2, 1))
        assert certificate == SparkCertificate(False, (0, 1, 2, 3, 4), 0.0)
        assert not frame_criterion(values, coords, (2, 2, 1))

    def test_each_check_runs_once(self, monkeypatch):
        calls = []
        for name in ("eigenvalues_distinct", "loads_every_chain"):
            check = getattr(dynphase.frames, name)

            def counted(*args, check=check, name=name):
                calls.append(name)
                return check(*args)

            monkeypatch.setattr(dynphase.frames, name, counted)
        certificate = full_spark_criterion(np.exp(2j * np.pi / 7) ** np.arange(3), np.ones(3), 6)
        assert certificate == SparkCertificate(True, None, None)
        assert sorted(calls) == ["eigenvalues_distinct", "loads_every_chain"]


class TestFrameInequality:
    def test_bounds_hold_on_random_vectors(self):
        rng = np.random.default_rng(60)
        frame, _, _ = diagonalizable_frame(rng, 4, 7)
        analysis = analyze(frame)
        for _ in range(100):
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            total = float(np.sum(np.abs(frame.coefficients(y)) ** 2))
            norm2 = float(np.linalg.norm(y) ** 2)
            assert analysis.lower_bound * norm2 <= total * (1 + 1e-9)
            assert total <= analysis.upper_bound * norm2 * (1 + 1e-9)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: harmonic_frame(2, 3).coefficients(np.ones(3)),
            DimensionMismatchError,
            "x has dim 3, expected 2",
            id="coefficients",
        ),
        pytest.param(
            lambda: circulant_frame([1.0, 0.0], [1.0, 0.0, 0.0], 3),
            DimensionMismatchError,
            "kernel has dim 2, generator 3",
            id="circulant-frame",
        ),
        pytest.param(
            lambda: frame_criterion([1.0, 2.0], [1.0, 1.0, 1.0]),
            DimensionMismatchError,
            "blocks (1, 1) need 2 coordinates, got 3",
            id="spectrum",
        ),
        pytest.param(
            lambda: frame_criterion([1.0, 2.0], [1.0, 1.0, 1.0], [0, 3]),
            ValueError,
            "multiplicities must be positive integers",
            id="multiplicities",
        ),
        pytest.param(lambda: dft_matrix(0), ValueError, "dim must be >= 1", id="dft-matrix"),
        pytest.param(
            lambda: full_spark_criterion([1.0, 2.0], [1.0, 1.0], 1),
            ValueError,
            "need length >= 2, got 1",
            id="full-spark-criterion",
        ),
        pytest.param(
            lambda: build(np.ones((2, 3)), np.ones(2), 3),
            DimensionMismatchError,
            "operator must be square, got shape (2, 3)",
            id="square",
        ),
        pytest.param(
            lambda: build(np.eye(2), np.ones((2, 1)), 3),
            DimensionMismatchError,
            "generator must be a nonempty 1-d array, got shape (2, 1)",
            id="array-shape",
        ),
    ],
)
def test_argument_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
