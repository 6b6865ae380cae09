"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a single PASS line (run with ``pytest -s`` to see the lines).
"""

import itertools
import math
import time

import numpy as np
import pytest

from dynphase import (
    JordanSpec,
    MeasurementConfig,
    PolarizationAngles,
    RecoveryStatus,
    analyze,
    assemble,
    build,
    classical,
    frame_criterion,
    full_spark,
    full_spark_criterion,
    generator_coordinates,
    global_phase_distance,
    harmonic_frame,
    measure,
    min_length,
    recover_full_spark,
    second_kind,
)
from dynphase.cli import main as cli_main
from dynphase.experiments import signal_with_zero_pattern, zero_patterns
from dynphase.instances import random_signal_for
from dynphase.polarization import recover_phases
from oracles import (
    det_product_classical,
    det_product_second_kind,
    effective_chain_size,
    first_kind,
    grid_phase_distance,
    pattern_flags,
    polarization_forward,
    random_distinct,
    random_unitary,
    schur_value,
    spark_by_enumeration,
    worst_case_pattern,
)

RIGHT_ANGLES = PolarizationAngles(0.0, math.pi / 2)
CFG = MeasurementConfig()


def test_criterion_1_polarization_exactness():
    rng = np.random.default_rng(201)
    pairs = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
    pairs = pairs[np.min(np.abs(pairs), axis=1) > 1e-3]
    z1, z2 = pairs.T
    started = time.perf_counter()
    m1, m2, plus1, plus2 = polarization_forward(z1, z2, 0.0, math.pi / 2)
    recovered = m1 * m2 * recover_phases(m1, m2, np.array([plus1, plus2]), RIGHT_ANGLES)
    expected = z1.conjugate() * z2
    worst = float(np.max(np.abs(recovered - expected) / np.abs(expected)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: polarization round trip on {len(pairs)} pairs, "
        f"worst relative error {worst:.2e}, {elapsed:.2f}s"
    )


def _rank_verdict(operator, generator) -> bool:
    d = operator.shape[0]
    frame = build(operator, generator, d)
    sv = np.linalg.svd(frame.synthesis(), compute_uv=False)
    return bool(sv[-1] > 1e-10 * sv[0])


def test_criterion_3_frame_criteria_equivalence():
    rng = np.random.default_rng(203)
    partitions = [(1, 1), (2, 1), (3, 1, 2), (2, 2), (1, 1, 1, 1), (4, 2), (3, 3), (2, 2, 2)]
    checked = 0
    while checked < 200:
        mode = checked % 5
        if mode in (0, 1):  # diagonalizable, generic positive
            d = int(rng.integers(2, 7))
            values = random_distinct(rng, d, gap=0.4)
            coords = rng.uniform(0.35, 1.2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            if mode == 1:  # forced negative: kill one coordinate
                coords[int(rng.integers(d))] = 0.0
            basis = random_unitary(rng, d)
            operator = (basis * values) @ basis.conj().T
            verdict = frame_criterion(values, coords)
            assert verdict == _rank_verdict(operator, basis @ coords)
        elif mode == 2:  # diagonalizable, forced repeated eigenvalue
            d = int(rng.integers(2, 7))
            values = random_distinct(rng, d, gap=0.4)
            values[d - 1] = values[0]
            coords = rng.uniform(0.35, 1.2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            basis = random_unitary(rng, d)
            operator = (basis * values) @ basis.conj().T
            verdict = frame_criterion(values, coords)
            assert verdict == _rank_verdict(operator, basis @ coords) == False  # noqa: E712
        else:  # Jordan-structured, defective blocks included
            mults = partitions[int(rng.integers(len(partitions)))]
            d = sum(mults)
            values = random_distinct(rng, len(mults), gap=0.4)
            if mode == 4 and len(mults) > 1:  # forced repeat across blocks
                values[-1] = values[0]
            basis = random_unitary(rng, d)
            spec = JordanSpec(values, mults, basis)
            coords = rng.uniform(0.35, 1.2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            if mode == 4 and len(mults) == 1:
                ends = np.cumsum(mults) - 1
                coords[ends[int(rng.integers(len(ends)))]] = 0.0
            generator = basis @ coords
            verdict = frame_criterion(
                spec.eigenvalues, generator_coordinates(spec, generator), spec.multiplicities
            )
            assert verdict == _rank_verdict(assemble(spec), generator)
        checked += 1
    print(f"PASS criterion 3: criterion vs rank verdict agreed on {checked} instances")


def test_criterion_4_vandermonde_determinants():
    rng = np.random.default_rng(204)
    # classical product formula vs pivoted LU, all dimensions up to 6
    for d in range(2, 7):
        for _ in range(10):
            values = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            product = det_product_classical(values)
            lu = np.linalg.det(classical(values, d))
            assert abs(product - lu) <= 1e-9 * abs(lu)
    # confluent product formula, including the (3, 1, 2) block layout at L = 6
    profiles = [(3, 1, 2), (1, 1), (2, 2), (4, 2), (1, 2, 3)]
    for mults in profiles:
        for _ in range(10):
            values = random_distinct(rng, len(mults))
            product = det_product_second_kind(values, mults)
            lu = np.linalg.det(second_kind(values, mults, sum(mults)))
            assert abs(product - lu) <= 1e-9 * abs(lu)
    # first-kind factorization is exact by construction
    for _ in range(20):
        d = int(rng.integers(2, 6))
        values = random_distinct(rng, d)
        exponents = tuple(sorted(rng.choice(10, size=d, replace=False)))
        det = np.linalg.det(first_kind(values, exponents))
        rebuilt = det_product_classical(values) * schur_value(values, exponents)
        assert abs(det - rebuilt) <= 1e-12 * max(abs(det), 1e-30)
    # permutation symmetry of the Schur value
    values = random_distinct(rng, 4)
    exponents = (0, 2, 5, 7)
    reference = schur_value(values, exponents)
    for perm in itertools.permutations(range(4)):
        permuted = schur_value(values[list(perm)], exponents)
        assert abs(permuted - reference) <= 1e-8 * abs(reference)
    print("PASS criterion 4: determinant formulas match LU and the factorization is exact")


def test_criterion_5_full_spark_certificates():
    # harmonic frame, all 15 column subsets checked exhaustively
    frame = harmonic_frame(4, 6)
    certificate = full_spark(frame.synthesis())
    assert certificate.full_spark
    ok, _ = spark_by_enumeration(frame.synthesis())
    assert ok

    # search for a spark-deficient spectrum: geometric spectra whose ratio is
    # a low-order root of unity repeat columns of the 3 x 6 power matrix
    deficient = None
    for order in range(2, 7):
        values = np.exp(2j * np.pi / order) ** np.arange(3)
        matrix = classical(values, 6)
        ok, witness = spark_by_enumeration(matrix)
        if not ok and np.min(
            np.abs(values[:, None] - values[None, :])[~np.eye(3, dtype=bool)]
        ) > 1e-6:
            deficient = (values, witness)
            break
    assert deficient is not None
    values, expected_witness = deficient
    certificate = full_spark_criterion(values, np.ones(3), 6)
    assert not certificate.full_spark
    assert certificate.witness == expected_witness
    sub = classical(values, 6)[:, list(certificate.witness)]
    assert abs(np.linalg.det(sub)) < 1e-9

    # shortcut paths agree with exhaustive enumeration on random instances
    rng = np.random.default_rng(205)
    agreements = 0
    while agreements < 50:
        d = int(rng.integers(2, 5))
        L = int(rng.integers(d, 9))
        style = agreements % 3
        if style == 0:  # distinct positive reals (positivity shortcut)
            values = np.array(sorted(rng.uniform(0.2, 2.5, d)))
            if d > 1 and np.min(np.diff(values)) < 0.05:
                continue
        elif style == 1:  # geometric spectrum (power shortcut or fallback)
            ratio = np.exp(2j * np.pi * rng.uniform(0.05, 0.95))
            values = ratio ** np.arange(d)
            if d > 1 and np.min(
                np.abs(values[:, None] - values[None, :])[~np.eye(d, dtype=bool)]
            ) < 1e-3:
                continue
        else:  # generic complex spectrum (enumeration path)
            values = random_distinct(rng, d)
        certificate = full_spark_criterion(values, np.ones(d), L)
        direct, _ = spark_by_enumeration(classical(values, L))
        assert certificate.full_spark == direct, (values, L)
        agreements += 1
    print("PASS criterion 5: spark certificates, witness, and 50 shortcut agreements")


def test_criterion_6_end_to_end_phase_retrieval():
    rng = np.random.default_rng(206)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        L = int(rng.integers(d, 2 * d + 1))
        values = random_distinct(rng, d)
        basis = random_unitary(rng, d)
        coords = rng.uniform(0.35, 1.2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        frame = build((basis * values) @ basis.conj().T, basis @ coords, L)
        x = random_signal_for(frame, rng)
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        worst = max(worst, global_phase_distance(result.estimate, x) / np.linalg.norm(x))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-7
    assert elapsed < 30.0
    print(
        f"PASS criterion 6: 200 end-to-end recoveries, worst phase-free error "
        f"{worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_7_zero_handling_and_bounds():
    assert min_length(4, 0) == 6
    assert min_length(5, 0) == 9
    assert min_length(5, 1) == 10

    # every admissible zero pattern at the minimum length leaves enough
    # constraints, and recovery succeeds on a signal realizing the pattern
    rng = np.random.default_rng(207)
    frame = harmonic_frame(4, 6)
    patterns = list(zero_patterns(6, 3))
    for zeros in patterns:
        assert effective_chain_size(pattern_flags(6, zeros), 0) >= 4, zeros
        x = signal_with_zero_pattern(frame, zeros, rng)
        assert x is not None, zeros
        result = recover_full_spark(measure(x, frame, CFG), frame, CFG)
        assert result.status == RecoveryStatus.RECOVERED, zeros
        assert global_phase_distance(result.estimate, x) <= 1e-7, zeros

    # one step below the bound the adversarial pattern defeats plain chaining
    # and a single jump bridges it
    short = harmonic_frame(4, 5)
    zeros = worst_case_pattern(4, 5, 2)
    x = signal_with_zero_pattern(short, zeros, rng)
    no_jump = recover_full_spark(measure(x, short, CFG), short, CFG)
    assert no_jump.status == RecoveryStatus.FAILED
    jump_cfg = MeasurementConfig(jumps=1)
    with_jump = recover_full_spark(measure(x, short, jump_cfg), short, jump_cfg)
    assert with_jump.status == RecoveryStatus.RECOVERED
    assert global_phase_distance(with_jump.estimate, x) <= 1e-7
    print(
        f"PASS criterion 7: {len(patterns)} zero patterns recovered at L=6, "
        "jump rescue verified at L=5"
    )


def test_criterion_8_metric_against_grid_search():
    rng = np.random.default_rng(208)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        closed = global_phase_distance(x, y)
        gridded = grid_phase_distance(x, y, 1_000_000)
        assert abs(closed - gridded) <= 1e-5
    print("PASS criterion 8: closed-form metric matches 1e6-point grid search on 50 pairs")


def test_criterion_9_verify_determinism(tmp_path):
    instance = tmp_path / "instance.json"
    assert (
        cli_main(
            ["gen", "random-diag", "4", "7", "--seed", "17", "--output", str(instance)]
        )
        == 0
    )
    first = tmp_path / "report1.json"
    second = tmp_path / "report2.json"
    assert cli_main(["verify", str(instance), "--output", str(first)]) == 0
    assert cli_main(["verify", str(instance), "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print("PASS criterion 9: verify reports are byte-identical across runs")
