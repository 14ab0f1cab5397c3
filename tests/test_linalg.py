"""Tests for the LU kernels: the from-scratch oracle and the LAPACK solve."""

import numpy as np
import pytest

from repro.errors import LinalgError
from repro.linalg import (
    batched_flops,
    batched_lu_factor,
    batched_lu_solve,
    batched_solve,
    condition_estimate_1norm,
    factor_flops,
    frobenius_norm,
    infinity_norm,
    lu_factor,
    lu_solve,
    one_norm,
    relative_residual,
    solve,
    solve_flops,
    solve_lower,
    solve_lower_unit,
    solve_upper,
)


def random_spd_free_matrix(rng, n):
    """A well-conditioned random matrix (diagonally dominated)."""
    matrix = rng.standard_normal((n, n))
    matrix += n * np.eye(n)
    return matrix


class TestLUFactor:
    def test_reconstruction(self, rng):
        a = rng.standard_normal((12, 12))
        factors = lu_factor(a)
        reconstructed = factors.lower() @ factors.upper()
        permuted = factors.permutation_matrix() @ a
        assert reconstructed == pytest.approx(permuted, abs=1e-12)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = solve(a, np.array([2.0, 3.0]))
        assert x == pytest.approx([3.0, 2.0])

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(LinalgError, match="singular"):
            lu_factor(a)

    def test_non_square_raises(self):
        with pytest.raises(LinalgError, match="square"):
            lu_factor(np.ones((2, 3)))

    def test_determinant(self, rng):
        a = random_spd_free_matrix(rng, 8)
        assert lu_factor(a).determinant() == pytest.approx(
            np.linalg.det(a), rel=1e-9
        )

    def test_integer_input_promoted(self):
        x = solve(np.array([[2, 0], [0, 4]]), np.array([2, 8]))
        assert x == pytest.approx([1.0, 2.0])

    def test_overwrite_mutates_input(self, rng):
        a = random_spd_free_matrix(rng, 5)
        original = a.copy()
        lu_factor(a, overwrite=True)
        assert not np.allclose(a, original)


class TestLUSolve:
    def test_matches_numpy(self, rng):
        a = random_spd_free_matrix(rng, 20)
        b = rng.standard_normal(20)
        assert solve(a, b) == pytest.approx(np.linalg.solve(a, b), abs=1e-10)

    def test_multiple_rhs(self, rng):
        a = random_spd_free_matrix(rng, 10)
        b = rng.standard_normal((10, 3))
        assert solve(a, b) == pytest.approx(np.linalg.solve(a, b), abs=1e-10)

    def test_rhs_shape_mismatch(self, rng):
        factors = lu_factor(random_spd_free_matrix(rng, 4))
        with pytest.raises(LinalgError, match="rhs"):
            lu_solve(factors, np.ones(5))

    def test_residual_near_machine_epsilon(self, rng):
        a = random_spd_free_matrix(rng, 30)
        b = rng.standard_normal(30)
        x = solve(a, b)
        assert relative_residual(a, x, b) < 1e-14


class TestTriangular:
    def test_lower_unit(self, rng):
        lower = np.tril(rng.standard_normal((8, 8)), -1) + np.eye(8)
        b = rng.standard_normal((8, 2))
        assert solve_lower_unit(lower, b) == pytest.approx(
            np.linalg.solve(lower, b), abs=1e-12
        )

    def test_upper(self, rng):
        upper = np.triu(rng.standard_normal((8, 8))) + 8 * np.eye(8)
        b = rng.standard_normal((8, 2))
        assert solve_upper(upper, b) == pytest.approx(
            np.linalg.solve(np.triu(upper), b), abs=1e-12
        )

    def test_lower_general(self, rng):
        lower = np.tril(rng.standard_normal((8, 8))) + 8 * np.eye(8)
        b = rng.standard_normal(8)
        assert solve_lower(lower, b) == pytest.approx(
            np.linalg.solve(np.tril(lower), b), abs=1e-12
        )

    def test_zero_diagonal_raises(self):
        upper = np.triu(np.ones((3, 3)))
        upper[1, 1] = 0.0
        with pytest.raises(LinalgError, match="zero diagonal"):
            solve_upper(upper, np.ones(3))


class TestBatched:
    def test_matches_numpy_per_matrix(self, rng):
        matrices = rng.standard_normal((7, 15, 15)) + 15 * np.eye(15)
        rhs = rng.standard_normal((7, 15))
        result = batched_solve(matrices, rhs)
        expected = np.stack([
            np.linalg.solve(matrix, vector)
            for matrix, vector in zip(matrices, rhs)
        ])
        assert result == pytest.approx(expected, abs=1e-10)

    def test_matches_single_matrix_path(self, rng):
        a = random_spd_free_matrix(rng, 9)
        b = rng.standard_normal(9)
        batched = batched_solve(a[None], b[None])[0]
        assert batched == pytest.approx(solve(a, b), abs=1e-12)
        # Each system is solved on its own: the same bytes alone and
        # inside a stack of five.
        stack = np.stack([random_spd_free_matrix(rng, 9) for _ in range(5)])
        stack_rhs = rng.standard_normal((5, 9))
        stack[3], stack_rhs[3] = a, b
        assert batched_solve(stack, stack_rhs)[3].tobytes() == batched.tobytes()

    def test_multiple_rhs(self, rng):
        matrices = rng.standard_normal((3, 6, 6)) + 6 * np.eye(6)
        rhs = rng.standard_normal((3, 6, 4))
        result = batched_solve(matrices, rhs)
        for index in range(3):
            assert result[index] == pytest.approx(
                np.linalg.solve(matrices[index], rhs[index]), abs=1e-10
            )

    def test_pivoting_in_batch(self):
        matrices = np.array([
            [[0.0, 1.0], [1.0, 0.0]],
            [[2.0, 0.0], [0.0, 2.0]],
        ])
        rhs = np.array([[1.0, 2.0], [2.0, 4.0]])
        result = batched_solve(matrices, rhs)
        assert result == pytest.approx(np.array([[2.0, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("factor_or_solve", [
        batched_lu_factor,
        lambda matrices: batched_solve(matrices, np.ones(matrices.shape[:2])),
    ], ids=["batched_lu_factor", "batched_solve"])
    def test_singular_member_identified(self, rng, factor_or_solve):
        matrices = rng.standard_normal((3, 4, 4)) + 4 * np.eye(4)
        matrices[1] = 0.0
        with pytest.raises(LinalgError, match="matrix 1"):
            factor_or_solve(matrices)

    def test_bad_shapes(self):
        with pytest.raises(LinalgError, match="stack"):
            batched_lu_factor(np.ones((3, 4, 5)))
        with pytest.raises(LinalgError, match="stack"):
            batched_solve(np.ones((3, 4, 5)), np.ones((3, 4)))
        with pytest.raises(LinalgError, match="rhs shape"):
            batched_solve(np.eye(3)[None], np.ones((1, 4)))

    def test_rhs_mismatch(self, rng):
        factors = batched_lu_factor(rng.standard_normal((2, 3, 3)) + 3 * np.eye(3))
        with pytest.raises(LinalgError, match="rhs shape"):
            batched_lu_solve(factors, np.ones((2, 4)))

    def test_single_precision_supported(self, rng):
        matrices = (rng.standard_normal((4, 10, 10)) + 10 * np.eye(10)).astype(np.float32)
        rhs = rng.standard_normal((4, 10)).astype(np.float32)
        result = batched_solve(matrices, rhs)
        assert result.dtype == np.float32
        expected = np.stack([
            np.linalg.solve(m.astype(np.float64), v.astype(np.float64))
            for m, v in zip(matrices, rhs)
        ])
        assert result == pytest.approx(expected, abs=1e-3)
        # Against the from-scratch oracle in its own float32: a few ulps
        # of the solution's scale.
        oracle = batched_lu_solve(batched_lu_factor(matrices), rhs)
        scale = np.abs(oracle).max()
        assert np.abs(result - oracle).max() <= 16 * np.finfo(np.float32).eps * scale

    def test_mixed_precision_rhs_rejected(self, rng):
        # Regression: a float64 RHS against float32 factors used to be
        # silently cast, absorbing exactly the precision mismatch the
        # dtype-grouped assembly path exists to surface.
        matrices = (rng.standard_normal((2, 5, 5)) + 5 * np.eye(5)).astype(np.float32)
        factors = batched_lu_factor(matrices)
        with pytest.raises(LinalgError, match="does not match LU dtype"):
            batched_lu_solve(factors, rng.standard_normal((2, 5)))
        with pytest.raises(LinalgError, match="does not match LU dtype"):
            batched_solve(matrices, rng.standard_normal((2, 5)))

    def test_mixed_precision_rhs_rejected_other_direction(self, rng):
        matrices = rng.standard_normal((2, 5, 5)) + 5 * np.eye(5)
        factors = batched_lu_factor(matrices)
        with pytest.raises(LinalgError, match="float32 does not match"):
            batched_lu_solve(
                factors, rng.standard_normal((2, 5)).astype(np.float32)
            )

    def test_integer_matrices_still_promote(self):
        matrices = np.array([[[2, 0], [0, 2]], [[3, 0], [0, 3]]])
        factors = batched_lu_factor(matrices)
        assert factors.lu.dtype == np.float64
        result = batched_solve(matrices, np.array([[2, 4], [3, 9]]))
        assert result.dtype == np.float64
        assert result.tolist() == [[1.0, 2.0], [1.0, 3.0]]

    def test_integer_rhs_still_promotes_to_factor_dtype(self, rng):
        for dtype in (np.float32, np.float64):
            matrices = (rng.standard_normal((2, 3, 3))
                        + 3 * np.eye(3)).astype(dtype)
            factors = batched_lu_factor(matrices)
            result = batched_lu_solve(factors, np.ones((2, 3), dtype=np.int64))
            assert result.dtype == dtype


class TestFlopCounts:
    def test_factor_leading_order(self):
        assert factor_flops(200) == (2 * 200**3) // 3

    def test_solve_count(self):
        assert solve_flops(100, 2) == 2 * 100 * 100 * 2

    def test_batched_total(self):
        assert batched_flops(10, 50) == 10 * (factor_flops(50) + solve_flops(50))


class TestNormsAndCondition:
    def test_one_norm(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert one_norm(a) == 6.0

    def test_infinity_norm(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert infinity_norm(a) == 7.0

    def test_frobenius(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_condition_identity(self):
        assert condition_estimate_1norm(np.eye(6)) == pytest.approx(1.0)

    def test_condition_tracks_numpy(self, rng):
        a = random_spd_free_matrix(rng, 12)
        estimate = condition_estimate_1norm(a)
        exact = np.linalg.cond(a, 1)
        assert 0.1 * exact <= estimate <= 1.5 * exact

    def test_condition_singular_is_inf(self):
        assert condition_estimate_1norm(np.zeros((3, 3))) == np.inf
