import numpy as np
import pytest

from dynphase import (
    DimensionMismatchError,
    JordanSpec,
    SingularMatrixError,
    assemble,
    generator_coordinates,
    jordan_matrix,
    second_kind,
)
from dynphase.spectral import DEPENDENCE_RTOL, loads_every_chain, min_eigenvalue_gap
from oracles import (
    DefectiveMatrixError,
    eigendecompose,
    hankel_of,
    jordan_power,
    matrix_power_naive,
    orbit_rank,
    random_unitary,
)


def diag_spec(values, basis=None):
    values = np.asarray(values, dtype=complex)
    basis = np.eye(values.size, dtype=complex) if basis is None else basis
    return JordanSpec(values, (1,) * values.size, basis)


def random_spec(rng, mults, gap=0.4):
    count = len(mults)
    while True:
        values = rng.uniform(0.7, 1.2, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        if count == 1:
            break
        diffs = np.abs(values[:, None] - values[None, :])
        if diffs[~np.eye(count, dtype=bool)].min() > gap:
            break
    return JordanSpec(values, tuple(mults), random_unitary(rng, sum(mults)))


class TestJordanSpecValidation:
    def test_multiplicity_sum_must_match_basis(self):
        with pytest.raises(DimensionMismatchError):
            JordanSpec(np.array([1.0, 2.0]), (1, 2), np.eye(2))

    def test_singular_basis_rejected(self):
        basis = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            JordanSpec(np.array([1.0, 2.0]), (1, 1), basis)

    def test_eigenvalue_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            JordanSpec(np.array([1.0]), (1, 1), np.eye(2))


class TestAssemble:
    def test_diagonalizable_identity_basis(self):
        spec = diag_spec([1.0, 2.0, 3.0])
        assert np.allclose(assemble(spec), np.diag([1.0, 2.0, 3.0]))

    def test_nilpotent_block(self):
        spec = JordanSpec(np.array([0.0]), (2,), np.eye(2))
        assert np.allclose(assemble(spec), [[0, 1], [0, 0]])

    def test_defective_round_trip_is_flagged(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, (3, 1, 2))
        a = assemble(spec)
        with pytest.raises(DefectiveMatrixError):
            eigendecompose(a)


class TestEigendecompose:
    def test_diagonal(self):
        values, vectors = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        assert sorted(np.round(values.real, 9)) == [1, 2, 3]
        assert np.allclose(np.abs(vectors), np.abs(vectors.round()), atol=1e-12)
        assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0)

    def test_rotation_eigenvalues(self):
        theta = np.pi / 4
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        values, _ = eigendecompose(rot)
        expected = {np.exp(1j * theta), np.exp(-1j * theta)}
        for v in values:
            assert min(abs(v - e) for e in expected) < 1e-12

    def test_similarity_round_trip(self):
        rng = np.random.default_rng(3)
        diag = np.array([0.5, -1.0 + 0.5j, 2.0, 1j])
        q = random_unitary(rng, 4)
        a = (q * diag) @ q.conj().T
        values, vectors = eigendecompose(a)
        recovered = sorted(values, key=lambda z: (z.real, z.imag))
        expected = sorted(diag, key=lambda z: (z.real, z.imag))
        assert np.max(np.abs(np.array(recovered) - np.array(expected))) < 1e-8
        assert np.linalg.norm(a @ vectors - vectors * values) < 1e-8 * np.linalg.norm(a)

    def test_defective_flagged(self):
        rng = np.random.default_rng(4)
        q = random_unitary(rng, 3)
        block = np.array([[0.7, 1, 0], [0, 0.7, 1], [0, 0, 0.7]], dtype=complex)
        with pytest.raises(DefectiveMatrixError):
            eigendecompose(q @ block @ q.conj().T)


class TestJordanPower:
    def test_power_zero_is_identity(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, (2, 1))
        assert np.allclose(jordan_power(spec, 0), np.eye(3))

    def test_single_block_cubed(self):
        lam = 0.3 - 1.1j
        spec = JordanSpec(np.array([lam]), (2,), np.eye(2))
        expected = np.array([[lam**3, 3 * lam**2], [0, lam**3]])
        assert np.allclose(jordan_power(spec, 3), expected, atol=1e-12)
        assert np.allclose(jordan_power(spec, 3), matrix_power_naive(jordan_matrix(spec), 3))

    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, (3, 2, 1))
        J = jordan_matrix(spec)
        assert np.max(np.abs(jordan_power(spec, 5) - matrix_power_naive(J, 5))) < 1e-10

    def test_operator_power_round_trip(self):
        rng = np.random.default_rng(14)
        for mults in [(1, 1, 1), (2, 1), (3, 1, 2), (2, 2, 2)]:
            spec = random_spec(rng, mults)
            a = assemble(spec)
            S = spec.basis
            for power in (1, 4, 10):
                lhs = matrix_power_naive(a, power)
                rhs = S @ jordan_power(spec, power) @ np.linalg.inv(S)
                scale = max(np.abs(lhs).max(), 1.0)
                assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale

    def test_blocks_read_confluent_vandermonde_columns(self):
        # row k of a block of J**p holds column p of second_kind, shifted by k;
        # below power 100 Python's and numpy's complex powers agree bit for bit
        rng = np.random.default_rng(21)
        spec = random_spec(rng, (3, 1, 2))
        confluent = second_kind(spec.eigenvalues, spec.multiplicities, 40)
        for power in (0, 1, 2, 5, 39):
            blocks = jordan_power(spec, power)
            for sl in spec.block_slices():
                for k in range(sl.stop - sl.start):
                    row = blocks[sl.start + k, sl.start + k : sl.stop]
                    assert row.tobytes() == confluent[sl.start : sl.stop - k, power].tobytes()

    def test_binomial_overflow_rejected(self):
        spec = JordanSpec(np.array([1.0]), (4,), np.eye(4))
        with pytest.raises(OverflowError):
            jordan_power(spec, 10**104)

    def test_negative_power_rejected(self):
        spec = diag_spec([1.0])
        with pytest.raises(ValueError):
            jordan_power(spec, -1)


class TestGeneratorCoordinates:
    def test_identity_basis_slices(self):
        spec = JordanSpec(np.array([1.0, 2.0]), (2, 1), np.eye(3))
        phi = np.array([1.0, 2.0, 3.0], dtype=complex)
        coords = generator_coordinates(spec, phi)
        first, second = spec.block_slices()
        assert coords.shape == (3,)
        assert np.allclose(coords[first], [1.0, 2.0])
        assert np.allclose(coords[second], [3.0])

    def test_first_basis_column(self):
        rng = np.random.default_rng(15)
        spec = random_spec(rng, (2, 2))
        coords = generator_coordinates(spec, spec.basis[:, 0])
        assert abs(coords[0] - 1.0) < 1e-10
        assert np.max(np.abs(coords[1:])) < 1e-10

    def test_reassembly(self):
        rng = np.random.default_rng(16)
        spec = random_spec(rng, (3, 1))
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coords = generator_coordinates(spec, phi)
        assert np.max(np.abs(spec.basis @ coords - phi)) < 1e-10


class TestLoadsEveryChain:
    def test_only_last_coordinate_of_each_block_counts(self):
        # blocks (2, 1): the last coordinates are indices 1 and 2
        assert loads_every_chain(np.array([0.0, 1.0, 1.0]), (2, 1))
        assert not loads_every_chain(np.array([1.0, 0.0, 1.0]), (2, 1))
        assert not loads_every_chain(np.array([1.0, 1.0, 0.0]), (2, 1))

    def test_unit_blocks_test_every_coordinate(self):
        assert loads_every_chain(np.array([1.0, -2j, 3.0]), (1, 1, 1))
        assert not loads_every_chain(np.array([1.0, 0.0, 3.0]), (1, 1, 1))

    def test_cut_is_relative_to_largest_coordinate(self):
        # the cut is strict: exactly DEPENDENCE_RTOL of the largest fails
        big = 1e6
        assert loads_every_chain(np.array([big, 2 * DEPENDENCE_RTOL * big]), (1, 1))
        assert not loads_every_chain(np.array([big, DEPENDENCE_RTOL * big]), (1, 1))
        # the largest coordinate need not be a block's last one
        assert not loads_every_chain(np.array([big, 1e-5]), (2,))
        assert loads_every_chain(np.array([big, 1e-3]), (2,))


def loads_chains(spec, phi):
    return loads_every_chain(generator_coordinates(spec, phi), spec.multiplicities)


class TestDependsOnAllGenerators:
    def test_zero_eigen_coordinate_fails(self):
        spec = diag_spec([1.0, 2.0, 3.0])
        assert not loads_chains(spec, np.array([1.0, 0.0, 1.0]))

    def test_sum_of_leading_generalized_eigenvectors(self):
        rng = np.random.default_rng(17)
        spec = random_spec(rng, (2, 3, 1))
        leading = [sl.stop - 1 for sl in spec.block_slices()]
        phi = spec.basis[:, leading].sum(axis=1)
        assert loads_chains(spec, phi)

    def test_agrees_with_rank_oracle(self):
        rng = np.random.default_rng(18)
        for mults in [(1, 1, 1), (2, 1), (2, 2), (3, 1, 2)]:
            spec = random_spec(rng, mults)
            d = spec.dim
            a = assemble(spec)
            for _ in range(5):
                phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                expected = orbit_rank(a, phi, d) == d
                assert loads_chains(spec, phi) == expected

    def test_scaling_invariance_of_exact_predicate(self):
        rng = np.random.default_rng(19)
        spec = random_spec(rng, (2, 1, 1))
        phi = spec.basis @ (rng.uniform(0.5, 1.0, 4) * np.exp(1j * rng.uniform(0, 6.28, 4)))
        for scalar in (1.0, 1e-6, 1e6, -2.3j):
            assert loads_chains(spec, scalar * phi)

    def test_identity_operator_never_spans(self):
        # one repeated eigenvalue across d trivial blocks: orbit rank stays 1
        d = 3
        spec = JordanSpec(np.ones(d), (1,) * d, np.eye(d))
        rng = np.random.default_rng(20)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert orbit_rank(np.eye(d), phi, d) == 1
        # dependence alone holds, which is why distinctness is tested separately
        assert loads_chains(spec, np.ones(d))


class TestHankel:
    def test_singleton(self):
        assert np.allclose(hankel_of([2.0 + 1j]), [[2.0 + 1j]])

    def test_pair(self):
        assert np.allclose(hankel_of([1.0, 2.0]), [[1.0, 2.0], [2.0, 0.0]])

    def test_invertible_iff_last_coordinate_nonzero(self):
        rng = np.random.default_rng(21)
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = hankel_of([a, b, c])
        # determinant is -c^3 for the 3x3 upper-left Hankel
        assert np.linalg.det(h) == pytest.approx(-(c**3), rel=1e-10)
        degenerate = hankel_of([a, b, 0.0])
        assert abs(np.linalg.det(degenerate)) < 1e-12


class TestMinEigenvalueGap:
    def test_single_value_is_infinitely_separated(self):
        assert min_eigenvalue_gap([1.0 + 2j]) == float("inf")

    def test_repeated_value_has_zero_gap(self):
        assert min_eigenvalue_gap([1.0, 0.5j, 1.0]) == 0.0

    @pytest.mark.parametrize("count", [2, 3, 7])
    def test_matches_pairwise_minimum(self, count):
        rng = np.random.default_rng(22 + count)
        for _ in range(10):
            values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            brute = min(
                abs(values[i] - values[j]) for i in range(count) for j in range(i + 1, count)
            )
            assert min_eigenvalue_gap(values) == pytest.approx(brute, rel=1e-15)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: generator_coordinates(JordanSpec(np.array([0.5]), (2,), np.eye(2)), np.ones(3)),
            DimensionMismatchError,
            "generator has dim 3, expected 2",
            id="generator-coordinates",
        ),
    ],
)
def test_argument_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
