import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynphase import (
    DimensionMismatchError,
    SingularMatrixError,
    determinant,
    inner_product,
    matmul,
    singular_values,
    solve_least_squares,
)
from oracles import (
    det_cofactor,
    gram_singular_values,
    lstsq_normal_equations,
    matmul_triple_loop,
    random_unitary,
)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def cvec(draw_dim=3):
    return st.lists(complexes, min_size=draw_dim, max_size=draw_dim).map(np.array)


class TestMatmul:
    def test_identity(self):
        m = np.array([[1 + 2j, 3], [0, 4j]])
        assert np.allclose(matmul(np.eye(2), m), m)

    def test_row_swap(self):
        swap = np.array([[0, 1], [1, 0]])
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(matmul(swap, m), [[3, 4], [1, 2]])

    def test_random_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(matmul(a, b) - matmul_triple_loop(a, b))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.eye(2), np.eye(3))


class TestInnerProduct:
    def test_unit(self):
        assert inner_product([1, 0], [1, 0]) == 1

    def test_orthogonal(self):
        assert inner_product([1, 0], [0, 1]) == 0

    def test_conjugation_convention(self):
        # <(i,0), (1,0)> = i, conjugate-linear in the second argument
        assert inner_product([1j, 0], [1, 0]) == 1j
        assert inner_product([1, 0], [1j, 0]) == -1j

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product([1, 0], [1, 0, 0])

    @given(cvec(), cvec())
    def test_conjugate_symmetry(self, x, y):
        lhs = inner_product(x, y)
        rhs = inner_product(y, x)
        assert abs(lhs - rhs.conjugate()) < 1e-9

    @given(cvec(), cvec())
    def test_cauchy_schwarz(self, x, y):
        bound = np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(inner_product(x, y)) <= bound + 1e-9


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == pytest.approx(1)

    def test_diagonal(self):
        assert determinant(np.diag([2.0, 3.0])) == pytest.approx(6)

    def test_random_matches_cofactor(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        expected = det_cofactor(m)
        assert abs(determinant(m) - expected) <= 1e-10 * abs(expected)

    def test_non_square(self):
        with pytest.raises(DimensionMismatchError):
            determinant(np.ones((2, 3)))

    def test_multiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = determinant(a @ b)
            rhs = determinant(a) * determinant(b)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), [1, 1, 1])

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 0.0])), [3, 0])

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert np.max(np.abs(singular_values(m) - gram_singular_values(m))) < 1e-10

    def test_squares_sum_to_frobenius(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.sum(singular_values(m) ** 2) == pytest.approx(
            np.linalg.norm(m) ** 2, rel=1e-12
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(rng, 4)
        assert np.max(np.abs(singular_values(u @ m) - singular_values(m))) < 1e-9


class TestSolveLeastSquares:
    def test_square_exact(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = solve_least_squares(m, b)
        assert np.linalg.norm(m @ x - b) < 1e-10

    def test_mean(self):
        x = solve_least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        assert x[0] == pytest.approx(1.0)

    def test_overdetermined_matches_normal_equations(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        assert np.max(np.abs(solve_least_squares(m, b) - lstsq_normal_equations(m, b))) < 1e-8

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        residual = m @ solve_least_squares(m, b) - b
        assert np.max(np.abs(m.conj().T @ residual)) < 1e-10

    def test_rank_deficient(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            solve_least_squares(m, np.array([1.0, 2.0, 3.0]))

    def test_wide_rejected(self):
        with pytest.raises(DimensionMismatchError):
            solve_least_squares(np.ones((2, 3)), np.ones(2))
