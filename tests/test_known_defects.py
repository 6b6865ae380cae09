"""Known wrong verdicts and refusals, each held as a strict xfail.

Every entry asserts the behaviour the library should have and cites the
ROADMAP item that would give it. A fix turns its entry into an XPASS, which
fails the suite: the fixing change removes the marker and says so in
CHANGES.md.
"""

import numpy as np
import pytest

from dynphase import (
    InconsistentDataError,
    MeasurementConfig,
    PolarizationAngles,
    SingularMatrixError,
    analyze,
    classical,
    full_spark,
    global_phase_distance,
    harmonic_frame,
    instances,
    measure,
    recover_full_spark,
)
from dynphase.cli import RECOVERY_TOL
from dynphase.experiments import signal_with_zero_pattern
from dynphase.polarization import recover_phases, recover_signs
from dynphase.retrieval import RecoveryStatus


@pytest.mark.xfail(
    strict=True,
    raises=SingularMatrixError,
    reason="ROADMAP 1a: the global zero cut takes 178 of 272 coefficients of a dense "
    "signal for zeros, and the raw rows, of condition 2.4e19, solve at rank 7 < 32",
)
def test_1a_dense_signal_on_a_long_orbit_is_not_called_zero(monkeypatch):
    def unchecked(frame, rng, *, real=False):
        x = rng.standard_normal(frame.dim) + 1j * rng.standard_normal(frame.dim)
        return x / np.linalg.norm(x)

    # the sampler refuses this orbit (ROADMAP 1b); a generic unit signal has no zero coefficient
    monkeypatch.setattr(instances, "random_signal_for", unchecked)
    instance = instances.make_instance("random-diag", 32, 272, seed=0)
    frame = instance.build_frame()
    result = recover_full_spark(measure(instance.signal, frame, instance.config), frame, instance.config)
    assert result.status is RecoveryStatus.RECOVERED
    assert global_phase_distance(result.estimate, instance.signal) <= RECOVERY_TOL


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 12a: minors of the orbit V, scaled by column norms, fall under 1e-10 "
    "on full-spark Jordan orbits; the orthonormal rows Q certify them",
)
def test_12a_jordan_orbits_certified_full_spark():
    for seed in range(10):
        frame = instances.make_instance("jordan", 8, 16, seed=seed).build_frame()
        assert analyze(frame, spark=True).spark.full_spark, seed


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="ROADMAP 1b: the sampler's global 1e-3 density rule finds no signal on "
    "circulant 6/12, whose orbit columns span decades",
)
def test_1b_circulant_instance_is_generated():
    instance = instances.make_instance("circulant", 6, 12, seed=1)
    assert instance.signal is not None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 25: the chain edge through a coefficient at 1e-11 of the largest "
    "takes its phase step from a cancelling polarization sum, and the error it passes on "
    "(7.4e-6) lies far above RECOVERY_TOL while the verdict stays Recovered",
)
def test_25_ill_conditioned_chain_edge_is_not_recovered():
    # test_partial_chain_on_borderline_magnitude's construction, with the bridge 10x weaker
    rng = np.random.default_rng(91)
    frame = harmonic_frame(4, 5)
    anchor = signal_with_zero_pattern(frame, (1, 3), rng)
    bridge = signal_with_zero_pattern(frame, (3,), rng)
    c_bridge = frame.coefficients(bridge)[1]
    scale = np.abs(frame.coefficients(anchor)).max()
    x = anchor + (1e-11 * scale / abs(c_bridge)) * bridge
    config = MeasurementConfig(zero_tol=1e-13)
    result = recover_full_spark(measure(x, frame, config), frame, config)
    if result.status is RecoveryStatus.RECOVERED:
        assert global_phase_distance(result.estimate, x) <= RECOVERY_TOL


# |z1| = |z2| = m, whose product 2.1e-520 underflows to 0
TINY = np.array([1.4484676898173625e-260])


@pytest.mark.xfail(
    strict=True,
    raises=(RuntimeWarning, InconsistentDataError),
    reason="ROADMAP 29: the cosine terms of a consistent pair at 1.4e-260 are 0/0",
)
def test_29_phase_of_a_tiny_pair():
    shifted = np.array([np.hypot(TINY, TINY), [0.0]])  # z2 = i z1: |z1 + z2|, |z1 + i z2|
    phases = recover_phases(TINY, TINY, shifted, PolarizationAngles(0.0, np.pi / 2))
    np.testing.assert_allclose(phases, [1j], atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 29: the product of a real pair at 1.4e-260 reads 0, hence sign +1",
)
def test_29_sign_of_a_tiny_pair():
    assert recover_signs(TINY, TINY, np.array([0.0]), 1)[0] == -1.0  # z2 = -z1: |z1 + z2| = 0


def test_6_columns_decades_apart_certified_full_spark():
    # column norms 1.7, 3.7e110 and 1e221: each column is certified in units of its own 2^e
    assert full_spark(classical([1e110, 2e110j, -3e110], 3)).full_spark
