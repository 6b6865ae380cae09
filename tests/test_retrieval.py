import itertools
import math
import re

import numpy as np
import pytest

from dynphase import (
    DimensionMismatchError,
    InconsistentDataError,
    MeasurementConfig,
    MeasurementSet,
    PolarizationAngles,
    RecoveryStatus,
    SingularMatrixError,
    ZeroMagnitudeError,
    build,
    circulant,
    global_phase_distance,
    harmonic_frame,
    measure,
    min_length,
    recover_full_spark,
    recover_generic,
    recover_real,
)
from dynphase.experiments import (
    chain_components,
    effective_chain_size,
    pattern_flags,
    signal_with_zero_pattern,
    worst_case_pattern,
    zero_patterns,
)
from dynphase.instances import make_instance, random_signal_for
from dynphase.retrieval import RELAXED_ZERO_FLOOR, _chain_phases
from dynphase.serialization import dump_json, measurement_set_to_json
from oracles import (
    chain_components_bfs,
    chain_phases_loop,
    grid_phase_distance,
    measure_loop,
    random_distinct,
    random_unitary,
)

CFG = MeasurementConfig()


def rotation(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )


def random_frame(rng, dim, length):
    values = random_distinct(rng, dim)
    basis = random_unitary(rng, dim)
    coords = rng.uniform(0.4, 1.2, dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    return build((basis * values) @ basis.conj().T, basis @ coords, length)


class TestMeasure:
    def test_zero_signal(self):
        frame = harmonic_frame(3, 5)
        ms = measure(np.zeros(3, dtype=complex), frame, CFG)
        assert np.all(ms.base == 0.0)
        assert all(v == 0.0 for v in ms.aligned.values())

    def test_signal_orthogonal_to_generator(self):
        frame = harmonic_frame(3, 5)
        x = np.array([1.0, -1.0, 0.0], dtype=complex)  # orthogonal to the all-ones generator
        ms = measure(x, frame, CFG)
        assert ms.base[0] == 0.0

    def test_values_match_inner_product_oracle(self):
        rng = np.random.default_rng(80)
        frame = harmonic_frame(3, 5)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ms = measure(x, frame, CFG)
        coeffs = [np.vdot(v, x) for v in frame.vectors]
        for l in range(5):
            assert ms.base[l] == pytest.approx(abs(coeffs[l]), abs=1e-12)
        for (l, j, k), value in ms.aligned.items():
            alpha = CFG.angles.alpha1 if k == 1 else CFG.angles.alpha2
            expected = abs(coeffs[l] + np.exp(-1j * alpha) * coeffs[l + j])
            assert value == pytest.approx(expected, abs=1e-12)
        # the aligned magnitude is literally |<x, A^l(phi + e^{ia} A^j phi)>|
        for (l, j, k), value in ms.aligned.items():
            alpha = CFG.angles.alpha1 if k == 1 else CFG.angles.alpha2
            shifted = frame.vectors[l] + np.exp(1j * alpha) * frame.vectors[l + j]
            assert value == pytest.approx(abs(np.vdot(shifted, x)), abs=1e-12)

    def test_grid_completeness(self):
        rng = np.random.default_rng(81)
        frame = harmonic_frame(4, 5)
        cfg = MeasurementConfig(jumps=1)
        ms = measure(rng.standard_normal(4) + 0j, frame, cfg)
        expected = {
            (l, j, k) for j in (1, 2) for l in range(5 - j) for k in (1, 2)
        }
        assert set(ms.aligned.keys()) == expected

    def test_jumps_cap(self):
        frame = harmonic_frame(3, 6)
        with pytest.raises(ValueError):
            measure(np.ones(3, dtype=complex), frame, MeasurementConfig(jumps=2))

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(82)
        frame = harmonic_frame(4, 6)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        plain = measure(x, frame, CFG)
        spun = measure(np.exp(0.73j) * x, frame, CFG)
        assert np.max(np.abs(plain.base - spun.base)) <= 1e-12 * plain.base.max()
        for key, value in plain.aligned.items():
            assert abs(value - spun.aligned[key]) <= 1e-12 * max(plain.base.max(), 1.0)


class TestMeasurementSetGrid:
    def measured(self, real=False):
        frame = harmonic_frame(4, 6)
        cfg = MeasurementConfig(jumps=1, real_mode=real)
        x = np.random.default_rng(110).standard_normal(4) + (0j if real else 1j)
        return measure(x, frame, cfg)

    def test_layout(self):
        ms = self.measured()
        assert ms.grid.shape == (2, 2, 5)
        assert self.measured(real=True).grid.shape == (2, 1, 5)
        assert np.isnan(ms.grid[1, :, 4]).all()
        for (l, j, k), value in ms.aligned.items():
            assert ms.grid[j - 1, k - 1, l] == value
        assert list(ms.aligned) == sorted(ms.aligned)
        assert len(ms.aligned) == 2 * (5 + 4)
        assert not ms.grid.flags.writeable and not ms.base.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 2, 4), (1, 2, 5), (2, 3, 5), (2, 5), (2, 0, 5)])
    def test_wrong_shape_rejected(self, shape):
        ms = self.measured()
        with pytest.raises(DimensionMismatchError):
            MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, np.ones(shape))

    def test_negative_jumps_rejected(self):
        ms = self.measured()
        with pytest.raises(ValueError, match="jumps"):
            MeasurementSet(ms.length, -1, ms.angles, ms.base, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_cell_rejected(self, bad):
        ms = self.measured()
        grid = ms.grid.copy()
        grid[1, 0, 3] = bad
        with pytest.raises(ValueError, match="aligned magnitudes"):
            MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_base_rejected(self, bad):
        ms = self.measured()
        base = ms.base.copy()
        base[2] = bad
        with pytest.raises(ValueError, match="base magnitudes"):
            MeasurementSet(ms.length, ms.jumps, ms.angles, base, ms.grid)

    def test_padding_ignored(self):
        ms = self.measured()
        grid = ms.grid.copy()
        grid[1, 0, 4], grid[1, 1, 4] = -1.0, math.inf
        rebuilt = MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, grid)
        assert np.isnan(rebuilt.grid[1, :, 4]).all()
        assert rebuilt.aligned == ms.aligned

    @pytest.mark.parametrize("real", [False, True])
    def test_dict_rebuilds_equal_set(self, real):
        ms = self.measured(real)
        rebuilt = MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, dict(ms.aligned))
        assert np.array_equal(rebuilt.base, ms.base)
        assert np.array_equal(rebuilt.grid, ms.grid, equal_nan=True)
        assert rebuilt.aligned == ms.aligned
        assert rebuilt.has_two_angles == ms.has_two_angles == (not real)
        assert dump_json(measurement_set_to_json(rebuilt)) == dump_json(measurement_set_to_json(ms))


def _orbit_signals(kind, real, count=8):
    frame = make_instance(kind, 6, 14, seed=5).build_frame()
    rng = np.random.default_rng(111)
    shape = (count, 6)
    xs = rng.standard_normal(shape) + (0.0 if real else 1j) * rng.standard_normal(shape)
    return frame, xs


class TestVectorizedAgainstLoops:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("jumps", [0, 1])
    @pytest.mark.parametrize("kind", ["harmonic", "random-diag", "jordan"])
    def test_grid_is_the_scalar_abs(self, kind, jumps, real):
        frame, xs = _orbit_signals(kind, real)
        cfg = MeasurementConfig(jumps=jumps, real_mode=real)
        for x in xs:
            ms, loop = measure(x, frame, cfg), measure_loop(x, frame, cfg)
            assert np.array_equal(ms.base, loop.base)
            # bit for bit: the loop takes one scalar abs per cell
            assert np.array_equal(ms.grid, loop.grid, equal_nan=True)

    @pytest.mark.parametrize("real", [False, True])
    def test_orbits_shorter_than_the_offsets(self, real):
        rng = np.random.default_rng(113)
        for length in range(1, 9):
            frame = build(np.diag(np.linspace(0.5, 1.3, 8)), np.ones(8), length)
            for jumps in range(7):
                cfg = MeasurementConfig(jumps=jumps, real_mode=real)
                x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                assert measure(x, frame, cfg).aligned == measure_loop(x, frame, cfg).aligned

    @pytest.mark.parametrize("real", [False, True])
    def test_zero_signal_on_a_short_orbit_fails(self, real):
        # every base magnitude is zero and L < d: the chain is empty
        frame = build(np.diag(np.linspace(0.5, 1.3, 8)), np.ones(8), 3)
        cfg = MeasurementConfig(real_mode=real)
        ms = measure(np.zeros(8), frame, cfg)
        recover = recover_real if real else recover_full_spark
        result = recover(ms, frame, cfg)
        assert result.status is RecoveryStatus.FAILED
        assert _chain_phases(ms, [], cfg.real_sign if real else None).shape == (0,)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("jumps", [0, 1])
    @pytest.mark.parametrize("kind", ["harmonic", "random-diag", "jordan"])
    def test_steps_match_scalar_polarization(self, kind, jumps, real):
        frame, xs = _orbit_signals(kind, real)
        cfg = MeasurementConfig(jumps=jumps, real_mode=real)
        sign = cfg.real_sign if real else None
        chains = [list(range(14)), [3, 4, 5]]
        if jumps:
            chains.append([l for l in range(14) if l % 3 != 1])  # offsets 1 and 2
        for x in xs:
            ms = measure(x, frame, cfg)
            for chain in chains:
                got = _chain_phases(ms, chain, sign)
                assert np.max(np.abs(got - chain_phases_loop(ms, chain, sign))) <= 1e-14

    @staticmethod
    def broken(real, edits):
        """A set over harmonic 4/8 with base indices zeroed and offset-1 cells inflated."""
        frame = harmonic_frame(4, 8)
        cfg = MeasurementConfig(real_mode=real)
        ms = measure(random_signal_for(frame, np.random.default_rng(112)), frame, cfg)
        base, grid = ms.base.copy(), ms.grid.copy()
        for k, (what, l) in enumerate(edits):
            if what == "base":
                base[l] = 0.0
            else:  # a different family and size for each inflated cell
                grid[0, k % grid.shape[1], l] = (10 + k) * base.max()
        return MeasurementSet(ms.length, ms.jumps, ms.angles, base, grid), cfg

    @pytest.mark.parametrize(
        "edits, error",
        [
            ([("cell", 2), ("base", 6)], InconsistentDataError),
            ([("base", 2), ("cell", 5)], ZeroMagnitudeError),
            ([("cell", 1), ("cell", 4)], InconsistentDataError),
            ([("base", 3), ("base", 6)], ZeroMagnitudeError),
        ],
    )
    @pytest.mark.parametrize("real", [False, True])
    def test_first_failing_edge_decides(self, edits, error, real):
        ms, cfg = self.broken(real, edits)
        sign = cfg.real_sign if real else None
        if real and all(what == "cell" for what, _ in edits):
            # real polarization has no clamp check: inflated cells only flip signs
            got = _chain_phases(ms, range(8), sign)
            assert np.array_equal(got, chain_phases_loop(ms, range(8), sign))
            return
        with pytest.raises(ValueError) as want:
            chain_phases_loop(ms, range(8), sign)
        assert type(want.value) is (ZeroMagnitudeError if real else error)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            _chain_phases(ms, range(8), sign)


class TestRecoverGeneric:
    def test_dense_orbit_exact(self):
        shift = circulant(np.array([0.0, 1.0, 0.0]))
        frame = build(shift, np.array([1.0, 0.0, 0.0], dtype=complex), 3)
        x = np.array([1.0, 1.0, 1.0], dtype=complex)
        result = recover_generic(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert result.used_indices == (0, 1, 2)
        assert global_phase_distance(result.estimate, x) < 1e-10

    def test_harmonic_round_trip(self):
        rng = np.random.default_rng(83)
        frame = harmonic_frame(4, 6)
        x = random_signal_for(frame, rng)
        result = recover_generic(measure(x, frame, CFG), frame, CFG)
        assert global_phase_distance(result.estimate, x) <= 1e-8 * np.linalg.norm(x)
        assert result.residual < 1e-9

    def test_zero_coefficient_raises(self):
        frame = harmonic_frame(3, 5)
        x = signal_with_zero_pattern(frame, (2,), np.random.default_rng(84))
        with pytest.raises(ZeroMagnitudeError):
            recover_generic(measure(x, frame, CFG), frame, CFG)

    def test_config_mismatch_detected(self):
        frame = harmonic_frame(3, 5)
        ms = measure(np.ones(3, dtype=complex), frame, CFG)
        other = MeasurementConfig(angles=PolarizationAngles(0.0, math.pi / 3))
        with pytest.raises(InconsistentDataError):
            recover_generic(ms, frame, other)

    def test_end_to_end_batch(self):
        rng = np.random.default_rng(85)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            L = int(rng.integers(d, 2 * d + 1))
            frame = random_frame(rng, d, L)
            x = random_signal_for(frame, rng)
            ms = measure(x, frame, CFG)
            result = recover_generic(ms, frame, CFG)
            assert global_phase_distance(result.estimate, x) <= 1e-7
            # one solve: the dense chain is the zero-tolerant chain with no zeros
            chained = recover_full_spark(ms, frame, CFG)
            assert result.status == chained.status
            assert result.used_indices == chained.used_indices
            assert result.component_size == chained.component_size
            assert np.array_equal(result.estimate, chained.estimate)

    def test_ill_conditioned_jordan_orbits(self):
        # ill-conditioned orbits: normal equations would square their condition number
        for seed in range(10):
            instance = make_instance("jordan", 16, 24, seed=seed)
            frame = instance.build_frame()
            result = recover_generic(measure(instance.signal, frame, CFG), frame, CFG)
            assert result.status == RecoveryStatus.RECOVERED, seed
            assert global_phase_distance(result.estimate, instance.signal) <= 1e-7, seed

    def test_short_orbit_fails_with_minimum_norm_guess(self):
        rng = np.random.default_rng(97)
        frame = random_frame(rng, 4, 3)
        x = random_signal_for(frame, rng)
        result = recover_generic(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.FAILED
        assert result.used_indices == (0, 1, 2)
        assert result.residual < 1e-9

    @pytest.mark.parametrize("norm", [1e-12, 1e-13, 1e-14])
    def test_tiny_signal_recovers(self, norm):
        # the polarization zero floor is relative, so scale does not matter
        frame = harmonic_frame(4, 6)
        x = norm * random_signal_for(frame, np.random.default_rng(98))
        ms = measure(x, frame, CFG)
        for recover in (recover_generic, recover_full_spark):
            result = recover(ms, frame, CFG)
            assert result.status == RecoveryStatus.RECOVERED
            assert global_phase_distance(result.estimate, x) <= 1e-7 * norm


class TestRecoverFullSpark:
    def test_all_zero_measurements(self):
        frame = harmonic_frame(4, 6)
        result = recover_full_spark(measure(np.zeros(4, dtype=complex), frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert np.all(result.estimate == 0.0)
        assert result.component_size == 6

    def test_single_zero_coefficient(self):
        rng = np.random.default_rng(86)
        frame = harmonic_frame(3, 5)
        x = signal_with_zero_pattern(frame, (2,), rng)
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert global_phase_distance(result.estimate, x) <= 1e-8
        assert result.component_size >= 3
        assert set(result.used_indices) <= {0, 1, 3, 4}

    def test_scaled_generator_over_shift_orbit(self):
        # coefficients are (c, 0, 0): one phased index plus two pinned zeros
        shift = circulant(np.array([0.0, 1.0, 0.0]))
        frame = build(shift, np.array([1.0, 0.0, 0.0], dtype=complex), 3)
        x = 2.5 * frame.generator
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert global_phase_distance(result.estimate, x) < 1e-10

    def test_worst_case_pattern_at_min_length(self):
        rng = np.random.default_rng(87)
        frame = harmonic_frame(4, 6)
        zeros = worst_case_pattern(4, 6, 2)  # two zeros spread to cut every long run
        x = signal_with_zero_pattern(frame, zeros, rng)
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert global_phase_distance(result.estimate, x) <= 1e-8

    def test_every_pattern_recovers_at_min_length(self):
        rng = np.random.default_rng(88)
        frame = harmonic_frame(4, 6)
        for zeros in zero_patterns(6, 3):
            x = signal_with_zero_pattern(frame, zeros, rng)
            assert x is not None
            result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
            assert result.status == RecoveryStatus.RECOVERED, zeros
            assert global_phase_distance(result.estimate, x) <= 1e-7, zeros

    def test_broken_chain_fails_below_min_length(self):
        rng = np.random.default_rng(89)
        frame = harmonic_frame(4, 5)
        zeros = worst_case_pattern(4, 5, 2)
        assert zeros == (1, 3)
        x = signal_with_zero_pattern(frame, zeros, rng)
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.FAILED

    def test_jump_bridges_the_broken_chain(self):
        rng = np.random.default_rng(90)
        frame = harmonic_frame(4, 5)
        cfg = MeasurementConfig(jumps=1)
        x = signal_with_zero_pattern(frame, (1, 3), rng)
        result = recover_full_spark(measure(x, frame, cfg), frame, cfg)
        assert result.status == RecoveryStatus.RECOVERED
        assert global_phase_distance(result.estimate, x) <= 1e-8
        assert set(result.used_indices) == {0, 2, 4}

    def test_partial_chain_on_borderline_magnitude(self):
        rng = np.random.default_rng(91)
        frame = harmonic_frame(4, 5)
        anchor = signal_with_zero_pattern(frame, (1, 3), rng)
        bridge = signal_with_zero_pattern(frame, (3,), rng)
        c_bridge = frame.coefficients(bridge)[1]
        scale = np.abs(frame.coefficients(anchor)).max()
        x = anchor + (1e-10 * scale / abs(c_bridge)) * bridge
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.PARTIAL
        assert global_phase_distance(result.estimate, x) <= 1e-6

    def test_rescue_pass_ends_in_a_verdict(self):
        # two near-zero coefficients pass the relaxed floor, but their
        # aligned magnitudes carry too little precision to polarize
        rng = np.random.default_rng(1)
        frame = harmonic_frame(5, 6)
        x = signal_with_zero_pattern(frame, (1, 4), rng)
        x = x + 3e-13 * np.linspace(1.0, 2.0, 5) * np.exp(1j * np.arange(5))
        coeffs = np.abs(frame.coefficients(x))
        assert np.count_nonzero(coeffs > RELAXED_ZERO_FLOOR * coeffs.max()) == 6
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.FAILED
        assert result.used_indices == (2, 3)

    def test_corrupted_data_still_raises(self):
        frame = harmonic_frame(4, 6)
        ms = measure(random_signal_for(frame, np.random.default_rng(99)), frame, CFG)
        aligned = dict(ms.aligned)
        aligned[(2, 1, 1)] = 10.0 * float(ms.base.max())
        bad = MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, aligned)
        with pytest.raises(InconsistentDataError):
            recover_full_spark(bad, frame, CFG)

    def test_rank_deficient_orbit_reported(self):
        frame = build(np.eye(2), np.array([1.0, 0.0], dtype=complex), 4)
        x = np.array([1.0, 0.5], dtype=complex)
        with pytest.raises(SingularMatrixError):
            recover_full_spark(measure(x, frame, CFG), frame, CFG)

    def test_zero_count_implies_zero_signal(self):
        # d zeros pin the estimate to zero even when other magnitudes remain
        frame = harmonic_frame(3, 6)
        base = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        aligned = {}
        for j in (1,):
            for l in range(6 - j):
                for k in (1, 2):
                    aligned[(l, j, k)] = 1.0
        ms = MeasurementSet(6, 0, CFG.angles, base, aligned)
        result = recover_full_spark(ms, frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert np.all(result.estimate == 0.0)
        assert result.component_size == 3


class TestRecoverReal:
    def test_rotation_sign_recovery(self):
        cfg = MeasurementConfig(real_mode=True)
        frame = build(rotation(math.pi / 3), np.array([1.0, 0.0], dtype=complex), 4)
        x = np.array([0.8, -0.6], dtype=complex)
        result = recover_real(measure(x, frame, cfg), frame, cfg)
        assert result.status == RecoveryStatus.RECOVERED
        err = min(np.linalg.norm(result.estimate - x), np.linalg.norm(result.estimate + x))
        assert err <= 1e-9

    def test_unit_vector_over_shift_orbit(self):
        cfg = MeasurementConfig(real_mode=True)
        shift = circulant(np.array([0.0, 1.0, 0.0]))
        frame = build(shift, np.array([1.0, 0.0, 0.0], dtype=complex), 3)
        x = np.array([0.0, 1.0, 0.0], dtype=complex)
        result = recover_real(measure(x, frame, cfg), frame, cfg)
        err = min(np.linalg.norm(result.estimate - x), np.linalg.norm(result.estimate + x))
        assert err <= 1e-10

    def test_negation_gives_identical_measurements(self):
        cfg = MeasurementConfig(real_mode=True)
        frame = build(rotation(math.pi / 3), np.array([1.0, 0.0], dtype=complex), 4)
        x = np.array([0.8, -0.6], dtype=complex)
        plus = measure(x, frame, cfg)
        minus = measure(-x, frame, cfg)
        assert np.array_equal(plus.base, minus.base)
        assert plus.aligned == minus.aligned
        result = recover_real(minus, frame, cfg)
        err = min(np.linalg.norm(result.estimate - x), np.linalg.norm(result.estimate + x))
        assert err <= 1e-9

    def test_jump_skips_interior_zero(self):
        # distinct positive eigenvalues give a full-spark real orbit
        cfg = MeasurementConfig(jumps=1, real_mode=True)
        frame = build(np.diag([0.6, 0.9, 1.2, 1.5]), np.ones(4), min_length(4, 1))
        rows = frame.synthesis().real
        x = np.random.default_rng(96).standard_normal(4)
        x -= (x @ rows[:, 3]) / (rows[:, 3] @ rows[:, 3]) * rows[:, 3]
        coeffs = np.abs(rows.T @ x)
        assert coeffs[3] <= 1e-12 * coeffs.max()
        assert np.delete(coeffs, 3).min() > 1e-3 * coeffs.max()
        result = recover_real(measure(x, frame, cfg), frame, cfg)
        assert result.status == RecoveryStatus.RECOVERED
        assert result.used_indices == (0, 1, 2, 4, 5, 6, 7)
        err = min(np.linalg.norm(result.estimate - x), np.linalg.norm(result.estimate + x))
        assert err <= 1e-9 * np.linalg.norm(x)

    def test_requires_real_mode_config(self):
        cfg = MeasurementConfig(real_mode=True)
        frame = build(rotation(math.pi / 3), np.array([1.0, 0.0], dtype=complex), 4)
        ms = measure(np.array([0.8, -0.6], dtype=complex), frame, cfg)
        with pytest.raises(ValueError):
            recover_real(ms, frame, MeasurementConfig())


class TestDegenerateDimension:
    def test_one_dimensional_orbit(self):
        frame = build(np.array([[0.8 + 0.1j]]), np.array([1.0 + 0j]), 1)
        x = np.array([2.0 - 1.0j])
        ms = measure(x, frame, CFG)
        assert dict(ms.aligned) == {}
        for recover in (recover_generic, recover_full_spark):
            result = recover(ms, frame, CFG)
            assert result.status == RecoveryStatus.RECOVERED
            assert global_phase_distance(result.estimate, x) <= 1e-7 * np.linalg.norm(x)


class TestMinLength:
    def test_reference_values(self):
        assert min_length(4, 0) == 6
        assert min_length(5, 0) == 9
        assert min_length(5, 1) == 10

    def test_small_dimensions(self):
        assert min_length(1, 0) == 1
        assert min_length(2, 0) == 2
        assert min_length(3, 0) == 4
        assert min_length(6, 0) == 12

    def test_jump_out_of_range(self):
        with pytest.raises(ValueError):
            min_length(4, 3)
        with pytest.raises(ValueError):
            min_length(2, 1)
        with pytest.raises(ValueError):
            min_length(4, -1)
        with pytest.raises(ValueError):
            min_length(0, 0)


class TestGlobalPhaseDistance:
    def test_phase_multiple_is_zero(self):
        rng = np.random.default_rng(92)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert global_phase_distance(x, np.exp(1.3j) * x) <= 1e-7 * np.linalg.norm(x)

    def test_phase_multiple_has_no_cancellation_floor(self):
        rng = np.random.default_rng(95)
        for _ in range(20):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            for theta in (0.3, 1.3, 2.9, -2.2):
                y = np.exp(1j * theta) * x
                assert global_phase_distance(x, y) <= 1e-14 * np.linalg.norm(x)

    def test_zero_vector(self):
        x = np.array([3.0, 4.0], dtype=complex)
        assert global_phase_distance(x, np.zeros(2, dtype=complex)) == pytest.approx(5.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert global_phase_distance(x, y) == pytest.approx(
                grid_phase_distance(x, y, 100_000), abs=1e-5
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            global_phase_distance(np.ones(2), np.ones(3))


class TestZeroCountLaw:
    def test_patterns_beyond_dimension_are_unrealizable(self):
        rng = np.random.default_rng(94)
        frame = harmonic_frame(3, 6)
        assert signal_with_zero_pattern(frame, (0, 1, 2), rng) is None

    def test_nonzero_signals_have_few_zeros(self):
        rng = np.random.default_rng(95)
        frame = harmonic_frame(4, 6)
        for zeros in zero_patterns(6, 3):
            x = signal_with_zero_pattern(frame, zeros, rng)
            coeffs = np.abs(frame.coefficients(x))
            counted = int(np.sum(coeffs <= 1e-9 * coeffs.max()))
            assert counted == len(zeros) <= 3


class TestChainCombinatorics:
    def test_components_respect_jumps(self):
        flags = pattern_flags(5, (1, 3))
        assert chain_components(flags, 0) == [[0], [2], [4]]
        assert chain_components(flags, 1) == [[0, 2, 4]]

    def test_components_match_bfs_oracle(self):
        for length in range(11):
            for flags in itertools.product((False, True), repeat=length):
                for jumps in range(4):
                    assert chain_components(flags, jumps) == chain_components_bfs(flags, jumps)

    def test_effective_size_counts_zeros(self):
        flags = pattern_flags(5, (1, 3))
        assert effective_chain_size(flags, 0) == 3
        assert effective_chain_size(flags, 1) == 5

    def test_min_length_bound_is_sharp_at_dim_four(self):
        # at L = 6 every admissible pattern leaves enough constraints
        for zeros in zero_patterns(6, 3):
            assert effective_chain_size(pattern_flags(6, zeros), 0) >= 4
        # one length shorter, the worst-case placement starves the chain
        bad = worst_case_pattern(4, 5, 2)
        assert effective_chain_size(pattern_flags(5, bad), 0) < 4

    def test_worst_case_pattern_layout(self):
        assert worst_case_pattern(4, 6, 2) == (1, 3)
        # with a jump allowance the runs shrink to zero and the zeros lead
        assert worst_case_pattern(4, 5, 2, jumps=1) == (0, 1)
