import itertools
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
)
from dynphase.cli import RECOVERY_TOL
from dynphase.experiments import signal_with_zero_pattern, zero_patterns
from dynphase.instances import KINDS, make_instance, random_signal_for
from dynphase.polarization import MAGNITUDE_RTOL, recover_phases
from dynphase.retrieval import (
    RecoveryResult,
    _chain_phases,
    _runs,
)
from dynphase.serialization import (
    dump_json,
    instance_to_json,
    measurement_set_to_json,
    recovery_result_to_json,
)
from oracles import (
    chain_components_bfs,
    chain_phases_loop,
    effective_chain_size,
    grid_phase_distance,
    measure_loop,
    pattern_flags,
    random_distinct,
    random_unitary,
    worst_case_pattern,
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
        vectors = frame.synthesis().T
        coeffs = [np.vdot(v, x) for v in vectors]
        for l in range(5):
            assert ms.base[l] == pytest.approx(abs(coeffs[l]), abs=1e-12)
        for (l, j, k), value in ms.aligned.items():
            alpha = CFG.angles.alpha1 if k == 1 else CFG.angles.alpha2
            expected = abs(coeffs[l] + np.exp(-1j * alpha) * coeffs[l + j])
            assert value == pytest.approx(expected, abs=1e-12)
        # the aligned magnitude is literally |<x, A^l(phi + e^{ia} A^j phi)>|
        for (l, j, k), value in ms.aligned.items():
            alpha = CFG.angles.alpha1 if k == 1 else CFG.angles.alpha2
            shifted = vectors[l] + np.exp(1j * alpha) * vectors[l + j]
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
        # the rule and its message are min_length's
        with pytest.raises(ValueError) as want:
            min_length(3, 2)
        frame = harmonic_frame(3, 6)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
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
        with pytest.raises(TypeError):
            ms.aligned[(0, 1, 1)] = 0.0

    @pytest.mark.parametrize("shape", [(2, 2, 4), (1, 2, 5), (2, 3, 5), (2, 5), (2, 0, 5)])
    def test_wrong_shape_rejected(self, shape):
        ms = self.measured()
        with pytest.raises(DimensionMismatchError):
            MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, np.ones(shape))

    def test_negative_jumps_rejected(self):
        ms = self.measured()
        with pytest.raises(ValueError, match="jumps"):
            MeasurementSet(ms.length, -1, ms.angles, ms.base, {})

    def test_non_integer_sizes_rejected(self):
        ms = self.measured()
        for sizes in [(6.7, 1), (6, 0.9), (6.0, 1)]:
            with pytest.raises(TypeError):
                MeasurementSet(*sizes, ms.angles, ms.base, ms.grid)
        rebuilt = MeasurementSet(np.int64(6), np.int64(1), ms.angles, ms.base, ms.grid)
        assert (rebuilt.length, rebuilt.jumps) == (6, 1)

    @pytest.mark.parametrize("size", [5, 7])
    def test_wrong_base_shape_rejected(self, size):
        ms = self.measured()
        with pytest.raises(
            DimensionMismatchError, match=rf"^base must hold 6 values, got shape \({size},\)$"
        ):
            MeasurementSet(ms.length, ms.jumps, ms.angles, np.ones(size), ms.grid)

    def test_matrix_base_rejected(self):
        ms = self.measured()
        with pytest.raises(DimensionMismatchError, match=r"got shape \(2, 3\)$"):
            MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base.reshape(2, 3), ms.grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_mapping_value_names_its_key(self, bad):
        ms = self.measured()
        aligned = dict(ms.aligned)
        aligned[(3, 2, 1)] = bad
        with pytest.raises(
            ValueError, match=rf"^aligned\[\(3, 2, 1\)\] must be finite nonnegative, got {bad}$"
        ):
            MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, aligned)

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


class TestMeasureHandOff:
    """measure keeps the arrays it built; its sets are those of the public constructor."""

    def assert_matches_constructor(self, ms):
        for arr in (ms.base, ms.grid):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        assert (type(ms.length), type(ms.jumps)) == (int, int)
        rebuilt = MeasurementSet(ms.length, ms.jumps, ms.angles, ms.base, ms.grid)
        assert np.array_equal(rebuilt.base, ms.base)
        assert np.array_equal(np.isnan(rebuilt.grid), np.isnan(ms.grid))
        assert np.array_equal(rebuilt.grid, ms.grid, equal_nan=True)
        assert rebuilt.aligned == ms.aligned

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize(
        "frame, jumps",
        [
            (harmonic_frame(4, 6), 0),
            (harmonic_frame(4, 6), 1),
            (harmonic_frame(4, 6), 2),
            # jumps + 1 >= L: offsets 2 and 3 have no cells
            (build(np.diag([0.5, 0.7, 0.9, 1.1]), np.ones(4), 2), 2),
            (harmonic_frame(1, 1), 0),
        ],
        ids=["4/6 J=0", "4/6 J=1", "4/6 J=2", "4/2 J=2", "1/1 J=0"],
    )
    def test_sets_match_public_constructor(self, frame, jumps, real):
        cfg = MeasurementConfig(jumps=np.int64(jumps), real_mode=real)
        rng = np.random.default_rng(113)
        d = frame.dim
        for x in (rng.standard_normal(d) + 1j * rng.standard_normal(d), np.zeros(d)):
            ms = measure(x, frame, cfg)
            assert ms.grid.shape == (jumps + 1, 1 if real else 2, frame.length - 1)
            self.assert_matches_constructor(ms)

    def test_grid_overflow_still_refused(self):
        # the base is finite; only the aligned cells overflow
        with np.errstate(over="ignore"):
            with pytest.raises(
                ValueError, match=r"^aligned magnitudes must be finite and nonnegative$"
            ):
                measure(np.array([1e308, 0.0]), harmonic_frame(2, 3), CFG)

    @pytest.mark.parametrize("scale", [4.49e307, 4.5e307])
    def test_largest_finite_sets_accepted(self, scale):
        # base magnitudes just below and just above a quarter of the largest float
        ms = measure(np.array([scale, 0.0]), harmonic_frame(2, 3), CFG)
        assert np.isfinite(ms.base).all() and np.isfinite(list(ms.aligned.values())).all()
        self.assert_matches_constructor(ms)

    def test_recovery_result_matches_public_constructor(self):
        frame = harmonic_frame(4, 6)
        x = signal_with_zero_pattern(frame, (1,), np.random.default_rng(114))
        for signal in (x, np.zeros(4)):
            result = recover_full_spark(measure(signal, frame, CFG), frame, CFG)
            assert result.estimate.dtype == np.complex128 and not result.estimate.flags.writeable
            rebuilt = RecoveryResult(*(getattr(result, f.name) for f in fields(RecoveryResult)))
            assert np.array_equal(rebuilt.estimate, result.estimate)
            assert rebuilt.used_indices == result.used_indices
            assert all(type(i) is int for i in result.used_indices)
            assert type(result.component_size) is int and type(result.residual) is float


def test_array_holders_compare_by_identity():
    x = np.random.default_rng(112).standard_normal(4) + 0j
    pairs = []
    shared = harmonic_frame(4, 6)  # one frame for every call: two come from build
    for _ in range(2):
        frame = build(shared.operator, shared.generator, shared.length)
        ms = measure(x, frame, CFG)
        pairs.append((frame, ms, recover_full_spark(ms, frame, CFG)))
    for first, second in zip(*pairs):
        assert first == first and first != second
        assert len({first, second}) == 2


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
        result = recover_full_spark(ms, frame, cfg)
        assert result.status is RecoveryStatus.FAILED
        assert _chain_phases(ms, []).shape == (0,)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("jumps", [0, 1])
    @pytest.mark.parametrize("kind", ["harmonic", "random-diag", "jordan"])
    def test_steps_match_scalar_polarization(self, kind, jumps, real):
        frame, xs = _orbit_signals(kind, real)
        cfg = MeasurementConfig(jumps=jumps, real_mode=real)
        sign = cfg.angles.real_sign if real else None
        chains = [list(range(14)), [3, 4, 5]]
        if jumps:
            chains.append([l for l in range(14) if l % 3 != 1])  # offsets 1 and 2
        for x in xs:
            ms = measure(x, frame, cfg)
            for chain in chains:
                got = _chain_phases(ms, chain)
                assert np.max(np.abs(got - chain_phases_loop(ms, chain, sign))) <= 1e-14

    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.lists(
            st.one_of(
                st.just(0j),  # else far above where products of magnitudes underflow
                st.builds(complex, st.floats(-5, 5), st.floats(-5, 5)).filter(
                    lambda z: abs(z) > 1e-3
                ),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    # a real pair under a symmetric angle pair: the sine cancels exactly, and the step -1
    # keeps it +0, where -(+0) would carry on as -0 through the product
    @example(2 * math.pi / 3, -2 * math.pi / 3, [0.5, -2.0])
    def test_steps_are_the_negated_pairs_bit_for_bit(self, alpha1, alpha2, coeffs):
        try:
            angles = PolarizationAngles(alpha1, alpha2)
        except ValueError:
            assume(False)
        c = np.array(coeffs, dtype=complex)
        z = c[:-1] + angles._shifts[:, None] * c[1:]
        grid = np.hypot(z.real, z.imag)[None]
        ms = MeasurementSet(c.size, 0, angles, np.abs(c), grid)
        negated = PolarizationAngles(-alpha1, -alpha2)
        outcomes = []
        for steps in (
            lambda: _chain_phases(ms, range(c.size)),
            lambda: np.multiply.accumulate(
                np.concatenate(([1], recover_phases(ms.base[:-1], ms.base[1:], grid[0], negated)))
            ),
        ):
            try:
                outcomes.append(steps().tobytes())
            except ValueError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1]

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
        sign = cfg.angles.real_sign if real else None
        if real and all(what == "cell" for what, _ in edits):
            # real polarization has no clamp check: inflated cells only flip signs
            got = _chain_phases(ms, range(8))
            assert np.array_equal(got, chain_phases_loop(ms, range(8), sign))
            return
        with pytest.raises(ValueError) as want:
            chain_phases_loop(ms, range(8), sign)
        assert type(want.value) is (ZeroMagnitudeError if real else error)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            _chain_phases(ms, range(8))


class TestRecoverGeneric:
    """Generic signals: no frame coefficient vanishes, so the chain covers every index."""

    def test_dense_orbit_exact(self):
        shift = circulant(np.array([0.0, 1.0, 0.0]))
        frame = build(shift, np.array([1.0, 0.0, 0.0], dtype=complex), 3)
        x = np.array([1.0, 1.0, 1.0], dtype=complex)
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert result.used_indices == (0, 1, 2)
        assert global_phase_distance(result.estimate, x) < 1e-10

    def test_harmonic_round_trip(self):
        rng = np.random.default_rng(83)
        frame = harmonic_frame(4, 6)
        x = random_signal_for(frame, rng)
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert global_phase_distance(result.estimate, x) <= 1e-8 * np.linalg.norm(x)
        assert result.residual < 1e-9

    def test_config_angles_and_jumps_unused(self):
        # the set carries its offsets and angles; only zero_tol is read from the config
        frame = harmonic_frame(4, 7)
        x = random_signal_for(frame, np.random.default_rng(86))
        cfg = MeasurementConfig(angles=PolarizationAngles(0.3, 1.5), jumps=1)
        ms = measure(x, frame, cfg)
        want = recover_full_spark(ms, frame, cfg)
        for other in (
            CFG,
            MeasurementConfig(angles=PolarizationAngles(0.3, 1.5)),
            MeasurementConfig(jumps=1),
            MeasurementConfig(jumps=2, real_mode=True),
        ):
            got = recover_full_spark(ms, frame, other)
            assert np.array_equal(got.estimate, want.estimate)
            assert (got.status, got.used_indices, got.component_size, got.residual) == (
                want.status,
                want.used_indices,
                want.component_size,
                want.residual,
            )
        assert global_phase_distance(want.estimate, x) <= 1e-8

    def test_end_to_end_batch(self):
        rng = np.random.default_rng(85)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            L = int(rng.integers(d, 2 * d + 1))
            frame = random_frame(rng, d, L)
            x = random_signal_for(frame, rng)
            result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
            assert result.used_indices == tuple(range(L))
            assert global_phase_distance(result.estimate, x) <= 1e-7

    def test_ill_conditioned_jordan_orbits(self):
        # ill-conditioned orbits: normal equations would square their condition number
        for seed in range(10):
            instance = make_instance("jordan", 16, 24, seed=seed)
            frame = instance.build_frame()
            result = recover_full_spark(measure(instance.signal, frame, CFG), frame, CFG)
            assert result.status == RecoveryStatus.RECOVERED, seed
            assert global_phase_distance(result.estimate, instance.signal) <= 1e-7, seed

    def test_agrees_with_full_spark_on_dense_data(self):
        # an ill-conditioned orbit, where the normal equations lose the signal: with no
        # zero coefficient the recovery is one solve over the whole dense chain
        instance = make_instance("jordan", 16, 24, seed=7)
        frame = instance.build_frame()
        config = instance.config
        ms = measure(instance.signal, frame, config)
        result = recover_full_spark(ms, frame, config)
        assert result.status == RecoveryStatus.RECOVERED
        assert result.used_indices == tuple(range(24))
        assert result.component_size == 24
        phases = chain_phases_loop(ms, range(24), None)
        assert np.max(np.abs(_chain_phases(ms, range(24)) - phases)) <= 1e-12
        want, rank = lstsq_rows(frame, range(24), ms.base * phases)
        assert rank == 16
        assert np.linalg.norm(result.estimate - want) <= 1e-8 * np.linalg.norm(want)
        assert global_phase_distance(result.estimate, instance.signal) <= 1e-7

    def test_short_orbit_fails_with_minimum_norm_guess(self):
        rng = np.random.default_rng(97)
        frame = random_frame(rng, 4, 3)
        x = random_signal_for(frame, rng)
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.FAILED
        assert result.used_indices == (0, 1, 2)
        assert result.residual < 1e-9

    @pytest.mark.parametrize("norm", [1e-12, 1e-13, 1e-14])
    def test_tiny_signal_recovers(self, norm):
        # the polarization zero floor is relative, so scale does not matter
        frame = harmonic_frame(4, 6)
        x = norm * random_signal_for(frame, np.random.default_rng(98))
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
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
        # coefficient 1 sits at 1e-10 of the largest: a zero under the default
        # zero_tol, which breaks the chain; a chain link under zero_tol=1e-13
        rng = np.random.default_rng(91)
        frame = harmonic_frame(4, 5)
        anchor = signal_with_zero_pattern(frame, (1, 3), rng)
        bridge = signal_with_zero_pattern(frame, (3,), rng)
        c_bridge = frame.coefficients(bridge)[1]
        scale = np.abs(frame.coefficients(anchor)).max()
        x = anchor + (1e-10 * scale / abs(c_bridge)) * bridge
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.FAILED
        cfg = MeasurementConfig(zero_tol=1e-13)
        result = recover_full_spark(measure(x, frame, cfg), frame, cfg)
        assert result.status == RecoveryStatus.RECOVERED
        assert global_phase_distance(result.estimate, x) <= 1e-6

    def test_rescue_pass_ends_in_a_verdict(self):
        # coefficients 1 and 4 lie above 1e-13 of the largest but under the
        # default zero_tol: as zeros they leave the run (2, 3), and 2 + 2 rows < 5
        rng = np.random.default_rng(1)
        frame = harmonic_frame(5, 6)
        x = signal_with_zero_pattern(frame, (1, 4), rng)
        x = x + 3e-13 * np.linspace(1.0, 2.0, 5) * np.exp(1j * np.arange(5))
        coeffs = np.abs(frame.coefficients(x))
        assert np.count_nonzero(coeffs > 1e-13 * coeffs.max()) == 6
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

    def test_d_zeros_go_through_the_row_solve(self):
        # d zeros beside a chain (3, 4, 5) that no signal fits: the estimate is the
        # least-squares solution of all L rows, not a zero vector
        frame = harmonic_frame(3, 6)
        base = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        ms = MeasurementSet(6, 0, CFG.angles, base, np.ones((1, 2, 5)))
        result = recover_full_spark(ms, frame, CFG)
        rows = frame.synthesis().conj().T[[3, 4, 5, 0, 1, 2]]
        rhs = np.concatenate((base[3:] * _chain_phases(ms, [3, 4, 5]), np.zeros(3)))
        want = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        assert result.status == RecoveryStatus.RECOVERED
        assert result.used_indices == (3, 4, 5)
        assert result.component_size == 6
        assert np.allclose(result.estimate, want, rtol=0.0, atol=1e-14)
        remeasured = np.abs(frame.coefficients(result.estimate))
        assert result.residual == np.linalg.norm(remeasured - base)
        assert result.residual == pytest.approx(0.908, abs=1e-3)

    def test_zero_signal_over_rank_deficient_orbit_reported(self):
        # L >= d zeros do not pin x to 0 when the orbit lacks full spark
        frame = build(np.eye(2), np.array([1.0, 0.0], dtype=complex), 4)
        with pytest.raises(SingularMatrixError):
            recover_full_spark(measure(np.zeros(2, dtype=complex), frame, CFG), frame, CFG)

    def test_zero_tol_below_the_pair_floor_cuts_at_the_floor(self):
        # coefficient 1 at 3e-13 of the largest is no zero under zero_tol=1e-13, but a
        # chain edge to it meets polarization's 1e-12 floor; recovery cuts at that floor
        rng = np.random.default_rng(91)
        frame = harmonic_frame(4, 5)
        anchor = signal_with_zero_pattern(frame, (1, 3), rng)
        bridge = signal_with_zero_pattern(frame, (3,), rng)
        c_bridge = frame.coefficients(bridge)[1]
        scale = np.abs(frame.coefficients(anchor)).max()
        x = anchor + (3e-13 * scale / abs(c_bridge)) * bridge
        results = [
            recover_full_spark(measure(x, frame, cfg), frame, cfg)
            for cfg in (MeasurementConfig(zero_tol=tol) for tol in (1e-13, MAGNITUDE_RTOL))
        ]
        for result in results:
            assert result.status == RecoveryStatus.FAILED
            assert result.used_indices == (0,)
            assert result.component_size == 3
        assert np.array_equal(results[0].estimate, results[1].estimate)


class TestScaleEquivariance:
    """Recovery works in units of a power of two, so scaling by ``2^k`` commutes with it."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(-1, 3),
        st.integers(0, 6),
        st.integers(0, 7),
        st.booleans(),
        st.booleans(),
        st.integers(-1000, 1000),
        st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling(self, d, extra, jumps, zeros, harmonic, real, k, seed):
        rng = np.random.default_rng(seed)
        jumps = min(jumps, max(d - 2, 0))
        length = max(d, min_length(d, jumps) + extra)  # extra = -1 gives Failed verdicts
        frame = harmonic_frame(d, length) if harmonic else random_frame(rng, d, length)
        pattern = rng.choice(length, size=min(zeros, d - 1), replace=False)
        x = signal_with_zero_pattern(frame, pattern, rng)
        assume(x is not None)
        cfg = MeasurementConfig(jumps=jumps, real_mode=real)
        ms = measure(x, frame, cfg)
        # the set of 2^k x as exact arithmetic gives it: the pattern's coefficients are
        # exact zeros, and every other value stays a normal double at any k used here
        base = np.where(ms.base > 1e-3 * ms.base.max(), ms.base, 0.0)
        want, got = (
            recover_full_spark(
                MeasurementSet(length, jumps, ms.angles, np.ldexp(base, s), np.ldexp(ms.grid, s)),
                frame,
                cfg,
            )
            for s in (0, k)
        )
        assert (got.status, got.used_indices, got.component_size) == (
            want.status,
            want.used_indices,
            want.component_size,
        )
        assert np.array_equal(got.estimate, want.estimate * 2.0**k)
        assert got.residual == want.residual * 2.0**k

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e154, 1e170, 1e290])
    def test_extreme_scales_recover(self, scale):
        # m1 * m2 under- or overflows at these scales unless recovery rescales
        frame = harmonic_frame(4, 6)
        x = np.array([1.0, 2j, -1.0, 0.5])
        result = recover_full_spark(measure(scale * x, frame, CFG), frame, CFG)
        assert result.status is RecoveryStatus.RECOVERED
        assert global_phase_distance(result.estimate / scale, x) <= 1e-14
        assert 0.0 <= result.residual <= 1e-14 * scale

    def test_non_finite_estimate_is_refused(self):
        # rows at 1e-310 overflow the solve; the residual's coefficients refuse the estimate
        frame = build(harmonic_frame(4, 8).operator, np.full(4, 1e-310), 8)
        x = np.array([1.0, 0.5j, -0.3, 0.2 + 0.1j])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
            recover_full_spark(measure(x, frame, CFG), frame, CFG)


class TestRecoveredImpliesSmallError:
    """A Recovered verdict is never a wrong signal, on every instance ``gen`` makes at d <= 8."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    def test_recovered_estimate_is_within_tolerance(self, kind, d, seed, data):
        d = 2 if kind == "rotation" else d
        length = data.draw(st.integers(d, 3 * d + 2))
        jumps = data.draw(st.integers(0, max(0, d - 2)))
        zeros = data.draw(st.integers(0, d - 1))
        config = MeasurementConfig(jumps=jumps)
        try:
            instance = make_instance(kind, d, length, seed=seed, config=config)
        except RuntimeError:  # the sampler found no dense signal (ROADMAP 1b)
            assume(False)
        frame = instance.build_frame()
        rng = np.random.default_rng(seed)
        pattern = rng.choice(length, size=zeros, replace=False)
        signals = [instance.signal, signal_with_zero_pattern(frame, pattern, rng)]
        for x in (x for x in signals if x is not None):
            result = recover_full_spark(measure(x, frame, config), frame, config)
            if result.status is RecoveryStatus.RECOVERED:
                assert global_phase_distance(result.estimate, x) <= RECOVERY_TOL


def lstsq_rows(frame, indices, rhs):
    """The reference solve: ``lstsq`` on a fresh copy of the selected rows."""
    rows = frame.synthesis()[:, list(indices)].conj().T
    solution, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    return solution, rank


class TestCachedRowSolve:
    """Full row sets are solved through the frame's cached SVD, exactly as ``lstsq`` would."""

    @pytest.mark.parametrize("kind", ["harmonic", "random-diag", "jordan"])
    def test_dense_chain_matches_lstsq(self, kind):
        for seed in range(3):
            instance = make_instance(kind, 8, 20, seed=seed)
            frame = instance.build_frame()
            ms = measure(instance.signal, frame, CFG)
            result = recover_full_spark(ms, frame, CFG)
            assert result.used_indices == tuple(range(20))
            rhs = ms.base * _chain_phases(ms, range(20))
            want, _ = lstsq_rows(frame, range(20), rhs)
            assert np.linalg.norm(result.estimate - want) <= 1e-12 * np.linalg.norm(want)

    def test_permuted_full_row_set(self):
        # the chain 2..5 plus the zeros 0, 1 cover every row, out of order
        frame = harmonic_frame(4, 6)
        x = signal_with_zero_pattern(frame, (0, 1), np.random.default_rng(7))
        ms = measure(x, frame, CFG)
        result = recover_full_spark(ms, frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert result.used_indices == (2, 3, 4, 5)
        rhs = np.zeros(6, dtype=complex)
        rhs[:4] = ms.base[2:] * _chain_phases(ms, [2, 3, 4, 5])
        want, _ = lstsq_rows(frame, [2, 3, 4, 5, 0, 1], rhs)
        assert np.linalg.norm(result.estimate - want) <= 1e-12 * np.linalg.norm(want)
        assert global_phase_distance(result.estimate, x) <= 1e-10

    def test_rank_deficient_orbit(self):
        # the generator misses the third eigendirection: every row set has rank 2
        frame = build(np.diag([1.0, 0.5j, -0.8]), np.array([1.0, 1.0, 0.0]), 5)
        order = [3, 0, 4, 1, 2]
        rhs = np.random.default_rng(11).standard_normal(5) * (1 + 1j)
        want, rank = lstsq_rows(frame, order, rhs)
        assert rank == 2
        guess, got_rank = frame._solve_rows(order, rhs)
        assert got_rank == rank
        assert np.linalg.norm(guess - want) <= 1e-12 * np.linalg.norm(want)
        # minimum norm: nothing along the dead direction
        assert abs(guess[2]) <= 1e-14 * np.linalg.norm(guess)
        x = np.array([1.0, 0.5, 0.25], dtype=complex)
        with pytest.raises(SingularMatrixError, match="rank 2 < 3"):
            recover_full_spark(measure(x, frame, CFG), frame, CFG)


RESULT_TEXT = (
    '{\n  "estimate": [\n    [\n      0.5,\n      0.25\n    ],\n    [\n      -1.0,\n      0.0\n'
    '    ]\n  ],\n  "status": "Recovered",\n  "used_indices": [\n    2,\n    3,\n'
    '    4\n  ],\n  "component_size": 5,\n  "residual": 0.125\n}\n'
)


class TestIndexContract:
    """Index sets travel as intp arrays; what callers read stays plain Python ints."""

    @pytest.mark.parametrize(
        "indices",
        [
            [2, 3, 4],
            range(2, 5),
            (i for i in (2, 3, 4)),
            (np.int64(2), np.int64(3), np.int64(4)),
            np.arange(2, 5),
            np.array([2, 3, 4], dtype=np.intp),
        ],
    )
    def test_used_indices_are_plain_ints(self, indices):
        estimate = np.array([0.5 + 0.25j, -1.0])
        result = RecoveryResult(estimate, RecoveryStatus.RECOVERED, indices, 5, 0.125)
        assert result.used_indices == (2, 3, 4)
        assert all(type(i) is int for i in result.used_indices)
        assert dump_json(recovery_result_to_json(result)) == RESULT_TEXT

    def test_recovered_indices_are_plain_ints(self):
        frame = harmonic_frame(4, 6)
        x = signal_with_zero_pattern(frame, (0, 1), np.random.default_rng(7))
        for result in (
            recover_full_spark(measure(x, frame, CFG), frame, CFG),
            recover_full_spark(measure(np.zeros(4), frame, CFG), frame, CFG),
        ):
            assert type(result.used_indices) is tuple and type(result.component_size) is int
            assert all(type(i) is int for i in result.used_indices)

    def test_hot_path_checks_still_fire(self):
        frame = harmonic_frame(2, 3)
        with pytest.raises(ValueError, match=re.escape("x contains NaN or Inf entries")):
            measure(np.array([np.nan, 0.0]), frame, CFG)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="base magnitudes must be finite and nonnegative"):
                measure(np.array([1e308, 1e308]), frame, CFG)
        with pytest.raises(DimensionMismatchError, match="x has dim 3, frame dim is 2"):
            measure(np.ones(3), frame, CFG)
        ms = measure(np.array([1.0, 0.5j]), harmonic_frame(2, 4), CFG)
        with pytest.raises(InconsistentDataError, match="measurement set has L=4, frame has L=3"):
            recover_full_spark(ms, frame, CFG)
        # the residual remeasures the estimate through coefficients, which checks it
        with pytest.raises(ValueError, match=re.escape("x contains NaN or Inf entries")):
            frame.coefficients(np.array([np.inf, 0.0]))


class TestRecoverReal:
    def test_rotation_sign_recovery(self):
        cfg = MeasurementConfig(real_mode=True)
        frame = build(rotation(math.pi / 3), np.array([1.0, 0.0], dtype=complex), 4)
        x = np.array([0.8, -0.6], dtype=complex)
        result = recover_full_spark(measure(x, frame, cfg), frame, cfg)
        assert result.status == RecoveryStatus.RECOVERED
        err = min(np.linalg.norm(result.estimate - x), np.linalg.norm(result.estimate + x))
        assert err <= 1e-9

    def test_unit_vector_over_shift_orbit(self):
        cfg = MeasurementConfig(real_mode=True)
        shift = circulant(np.array([0.0, 1.0, 0.0]))
        frame = build(shift, np.array([1.0, 0.0, 0.0], dtype=complex), 3)
        x = np.array([0.0, 1.0, 0.0], dtype=complex)
        result = recover_full_spark(measure(x, frame, cfg), frame, cfg)
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
        result = recover_full_spark(minus, frame, cfg)
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
        result = recover_full_spark(measure(x, frame, cfg), frame, cfg)
        assert result.status == RecoveryStatus.RECOVERED
        assert result.used_indices == (0, 1, 2, 4, 5, 6, 7)
        err = min(np.linalg.norm(result.estimate - x), np.linalg.norm(result.estimate + x))
        assert err <= 1e-9 * np.linalg.norm(x)

    def test_single_family_set_recovers_under_a_complex_config(self):
        # the set's one aligned family selects sign recovery, whatever the config says
        cfg = MeasurementConfig(real_mode=True)
        frame = build(rotation(math.pi / 3), np.array([1.0, 0.0], dtype=complex), 4)
        x = np.array([0.8, -0.6], dtype=complex)
        ms = measure(x, frame, cfg)
        assert not ms.has_two_angles
        want = recover_full_spark(ms, frame, cfg)
        got = recover_full_spark(ms, frame, MeasurementConfig())
        assert got.status == RecoveryStatus.RECOVERED
        assert np.array_equal(got.estimate, want.estimate)
        err = min(np.linalg.norm(want.estimate - x), np.linalg.norm(want.estimate + x))
        assert err <= 1e-9

    def test_config_rejects_negative_jumps(self):
        with pytest.raises(ValueError, match=r"^jumps must be >= 0$"):
            MeasurementConfig(jumps=-1)

    def test_config_rejects_non_integer_jumps(self):
        with pytest.raises(TypeError):
            MeasurementConfig(jumps=1.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-9, 1.5, math.nan])
    def test_config_rejects_zero_tol_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"^zero_tol must lie strictly between 0 and 1$"):
            MeasurementConfig(zero_tol=bad)

    def test_config_checks_real_sign(self):
        with pytest.raises(ValueError, match="real mode needs alpha1 to be a multiple of pi"):
            MeasurementConfig(PolarizationAngles(0.3, 1.5), real_mode=True)
        # the same angles are fine for the complex two-family measurements
        assert not MeasurementConfig(PolarizationAngles(0.3, 1.5)).real_mode
        assert MeasurementConfig(PolarizationAngles(math.pi, 1.5), real_mode=True).real_mode

    def test_sign_needs_alpha1_on_the_real_line(self):
        frame = build(rotation(math.pi / 3), np.array([1.0, 0.0], dtype=complex), 4)
        ms = measure(np.array([0.8, -0.6]), frame, MeasurementConfig(real_mode=True))
        tilt = PolarizationAngles(0.3, 1.5)
        tilted = MeasurementSet(ms.length, ms.jumps, tilt, ms.base, ms.grid)
        # recovery and measure share one check and its message
        with pytest.raises(ValueError, match="real mode needs alpha1 to be a multiple of pi"):
            recover_full_spark(tilted, frame, CFG)
        with pytest.raises(ValueError, match="real mode needs alpha1 to be a multiple of pi"):
            measure(np.ones(2), frame, MeasurementConfig(tilt, real_mode=True))


class TestMakeInstanceRejects:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unknown kind 'spiral', expected one of \("):
            make_instance("spiral", 3, 5)

    @pytest.mark.parametrize("kind", ["harmonic", "random-diag", "circulant", "jordan"])
    def test_real_mode_outside_rotation(self, kind):
        with pytest.raises(
            ValueError, match=r"^real_mode generation is only supported for rotation instances$"
        ):
            make_instance(kind, 3, 5, config=MeasurementConfig(real_mode=True))

    def test_bool_seed(self):
        # the instance JSON refuses a bool seed
        with pytest.raises(TypeError, match=r"^seed must be an integer, not a bool$"):
            make_instance("harmonic", 4, 6, seed=True)

    def test_numpy_sizes_and_seed_give_the_plain_instance(self):
        plain = make_instance("harmonic", 4, 6, seed=3)
        given = make_instance("harmonic", np.int64(4), np.int32(6), seed=np.int64(3))
        assert dump_json(instance_to_json(given)) == dump_json(instance_to_json(plain))

    @pytest.mark.parametrize("theta", [0.0, math.pi, -math.pi, 2 * math.pi, 5 * math.pi])
    def test_rotation_by_a_multiple_of_pi(self, theta):
        with pytest.raises(ValueError, match=r"^rotation angle must not be a multiple of pi$"):
            make_instance("rotation", 2, 4, theta=theta)


class TestSharedDenseDraw:
    @pytest.mark.parametrize("kind, d, L", [("harmonic", 4, 6), ("random-diag", 8, 20)])
    @pytest.mark.parametrize("seed", range(5))
    def test_empty_pattern_draws_the_dense_signal(self, kind, d, L, seed):
        # one sampling rule: with no zeros both samplers take the same draws
        frame = make_instance(kind, d, L).build_frame()
        dense_rng, pattern_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dense = random_signal_for(frame, dense_rng)
        pattern = signal_with_zero_pattern(frame, (), pattern_rng)
        assert pattern.tobytes() == dense.tobytes()
        assert pattern_rng.bit_generator.state == dense_rng.bit_generator.state


class TestDegenerateDimension:
    def test_one_dimensional_orbit(self):
        frame = build(np.array([[0.8 + 0.1j]]), np.array([1.0 + 0j]), 1)
        x = np.array([2.0 - 1.0j])
        ms = measure(x, frame, CFG)
        assert dict(ms.aligned) == {}
        result = recover_full_spark(ms, frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED
        assert global_phase_distance(result.estimate, x) <= 1e-7 * np.linalg.norm(x)

    def test_single_index_set_needs_no_real_sign(self):
        # no cells, so one family; the chain has no edge, and alpha1 = 0.3 is never read as a sign
        frame = build(np.array([[0.8 + 0.1j]]), np.array([1.0 + 0j]), 1)
        x = np.array([2.0 - 1.0j])
        ms = MeasurementSet(1, 0, PolarizationAngles(0.3, 1.5), np.abs(frame.coefficients(x)), {})
        assert not ms.has_two_angles
        result = recover_full_spark(ms, frame, MeasurementConfig(angles=ms.angles))
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

    def test_non_integer_sizes_rejected(self):
        for sizes in [(4.5,), (4.0, 0), (4, 1.0)]:
            with pytest.raises(TypeError):
                min_length(*sizes)
        # before any draw, not as a SchemaError on the generated spec
        for sizes in [(4.0, 6), (4, 6.0), (4, 6.5)]:
            with pytest.raises(TypeError):
                make_instance("harmonic", *sizes)
        assert min_length(np.int64(5), np.int64(1)) == 10


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
        state = rng.bit_generator.state
        assert signal_with_zero_pattern(frame, (0, 1, 2), rng) is None
        assert signal_with_zero_pattern(frame, range(6), rng) is None
        assert rng.bit_generator.state == state

    def test_nonzero_signals_have_few_zeros(self):
        rng = np.random.default_rng(95)
        frame = harmonic_frame(4, 6)
        for zeros in zero_patterns(6, 3):
            x = signal_with_zero_pattern(frame, zeros, rng)
            coeffs = np.abs(frame.coefficients(x))
            counted = int(np.sum(coeffs <= 1e-9 * coeffs.max()))
            assert counted == len(zeros) <= 3


def run_components(flags, jumps: int) -> list[list[int]]:
    """The chain components that recovery reads from ``_runs``."""
    alive, bounds = _runs(np.asarray(flags, dtype=bool), jumps)
    return [alive[bounds[i] : bounds[i + 1]].tolist() for i in range(bounds.size - 1)]


class TestChainCombinatorics:
    def test_components_respect_jumps(self):
        flags = pattern_flags(5, (1, 3))
        assert run_components(flags, 0) == [[0], [2], [4]]
        assert run_components(flags, 1) == [[0, 2, 4]]

    def test_components_match_bfs_oracle(self):
        for length in range(11):
            for flags in itertools.product((False, True), repeat=length):
                for jumps in range(4):
                    if any(flags):
                        assert run_components(flags, jumps) == chain_components_bfs(flags, jumps)
                    else:
                        # no True position: one empty run, which recovery never
                        # reaches, since it returns early on d or more zeros
                        assert run_components(flags, jumps) == [[]]

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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: signal_with_zero_pattern(harmonic_frame(3, 5), (1, 5), np.random.default_rng(0)),
            "zero indices out of range 0..4: [1, 5]",
            id="zero-pattern",
        ),
        pytest.param(
            lambda: make_instance("harmonic", 4, 3),
            "need dim >= 1 and length >= dim, got dim=4, length=3",
            id="make-instance",
        ),
    ],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
