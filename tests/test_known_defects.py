"""Known wrong verdicts and refusals, each held as a strict xfail.

Every entry asserts the behaviour the library should have and cites the
ROADMAP item that would give it. A fix turns its entry into an XPASS, which
fails the suite: the fixing change removes the marker and says so in
CHANGES.md.
"""

import numpy as np
import pytest

from dynphase import (
    analyze,
    classical,
    full_spark,
    global_phase_distance,
    instances,
    measure,
    recover_full_spark,
)
from dynphase.cli import RECOVERY_TOL
from dynphase.retrieval import RecoveryStatus


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 1a: the global zero cut takes 178 of 272 coefficients of a dense "
    "signal for zeros, and the 'd zeros' branch returns 0 as Recovered",
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
    if result.status is RecoveryStatus.RECOVERED:
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
    reason="FOUND on column-norm overflow, ROADMAP 6: column norms 1.7, 3.7e110 and 1e221 "
    "span too far for one power of two, so the norm product leaves the range and the "
    "minors of a full-spark Vandermonde matrix read 0",
)
def test_6_columns_decades_apart_certified_full_spark():
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert full_spark(classical([1e110, 2e110j, -3e110], 3)).full_spark
