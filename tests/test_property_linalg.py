"""Property-based tests for the linear-algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import naca
from repro.linalg import (
    batched_lu_factor,
    batched_lu_solve,
    batched_solve,
    lu_factor,
    lu_solve,
    relative_residual,
)
from repro.panel import Freestream
from repro.panel.assembly import assemble_batch
from repro.panel.solver import solution_from_unknowns


def well_conditioned_matrices(max_n=12):
    """Random square matrices pushed away from singularity."""
    return st.integers(2, max_n).flatmap(
        lambda n: hnp.arrays(
            np.float64, (n, n),
            elements=st.floats(-10.0, 10.0, allow_nan=False),
        ).map(lambda a: a + (np.abs(a).sum() + n) * np.eye(n))
    )


class TestLUProperties:
    @given(matrix=well_conditioned_matrices())
    @settings(max_examples=60, deadline=None)
    def test_factorization_reconstructs(self, matrix):
        factors = lu_factor(matrix)
        reconstructed = factors.lower() @ factors.upper()
        assert np.allclose(
            reconstructed, factors.permutation_matrix() @ matrix,
            atol=1e-8 * (1 + np.abs(matrix).max()),
        )

    @given(matrix=well_conditioned_matrices())
    @settings(max_examples=60, deadline=None)
    def test_solve_has_tiny_backward_error(self, matrix):
        n = matrix.shape[0]
        rhs = np.arange(1.0, n + 1.0)
        x = lu_solve(lu_factor(matrix), rhs)
        assert relative_residual(matrix, x, rhs) < 1e-12

    @given(matrix=well_conditioned_matrices())
    @settings(max_examples=40, deadline=None)
    def test_pivot_permutation_is_a_permutation(self, matrix):
        factors = lu_factor(matrix)
        assert sorted(factors.pivots.tolist()) == list(range(matrix.shape[0]))

    @given(matrix=well_conditioned_matrices())
    @settings(max_examples=40, deadline=None)
    def test_unit_lower_triangle_bounded(self, matrix):
        """Partial pivoting keeps |L| <= 1 below the diagonal."""
        factors = lu_factor(matrix)
        lower = np.tril(factors.lu, -1)
        assert np.all(np.abs(lower) <= 1.0 + 1e-12)

    @given(matrix=well_conditioned_matrices(), scale=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_solution_linearity(self, matrix, scale):
        """A(x1 + c x2) = b1 + c b2 (solving is linear in the rhs)."""
        n = matrix.shape[0]
        factors = lu_factor(matrix)
        b1 = np.ones(n)
        b2 = np.arange(1.0, n + 1.0)
        x1 = lu_solve(factors, b1)
        x2 = lu_solve(factors, b2)
        combined = lu_solve(factors, b1 + scale * b2)
        assert np.allclose(combined, x1 + scale * x2, atol=1e-9)


class TestBatchedProperties:
    @given(
        data=st.data(),
        batch=st.integers(1, 6),
        n=st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_loop_of_singles(self, data, batch, n):
        matrices = data.draw(hnp.arrays(
            np.float64, (batch, n, n),
            elements=st.floats(-5.0, 5.0, allow_nan=False),
        ))
        matrices = matrices + (np.abs(matrices).sum(axis=(1, 2))[:, None, None]
                               + n) * np.eye(n)
        rhs = data.draw(hnp.arrays(
            np.float64, (batch, n),
            elements=st.floats(-5.0, 5.0, allow_nan=False),
        ))
        batched = batched_lu_solve(batched_lu_factor(matrices), rhs)
        for index in range(batch):
            single = lu_solve(lu_factor(matrices[index]), rhs[index])
            assert np.allclose(batched[index], single, atol=1e-9)


def naca4_designations():
    """NACA 4-digit sections: camber 0-6 %, its position, 6-24 % thick."""
    cambered = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return st.tuples(
        st.one_of(st.just((0, 0)), cambered), st.integers(6, 24),
    ).map(lambda parts: f"{parts[0][0]}{parts[0][1]}{parts[1]:02d}")


#: Gate on the relative residual of every solve, per precision.  The
#: float32 bound is ~8 ulps; measured values stay below 4e-8.
RESIDUAL_BOUND = {np.float64: 1e-12, np.float32: 1e-6}


class TestLapackAgainstOracle:
    """The production LAPACK solve against the from-scratch batched LU.

    On real assembled panel stacks both must solve each system to
    working precision, and in double precision cl and cm must agree to
    1e-9 of ``max(1, |value|)``, so a cl near zero is compared
    absolutely.
    """

    @given(
        designations=st.lists(naca4_designations(), min_size=1, max_size=3),
        alpha=st.floats(-4.0, 10.0),
        n_panels=st.integers(2, 150).map(lambda half: 2 * half),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    @settings(max_examples=30, deadline=None)
    def test_panel_stacks_agree(self, designations, alpha, n_panels, dtype):
        matrices, rhs, systems = assemble_batch(
            [naca(name, n_panels) for name in designations],
            Freestream.from_degrees(alpha), dtype=dtype,
        )
        lapack = batched_solve(matrices, rhs)
        oracle = batched_lu_solve(batched_lu_factor(matrices), rhs)
        assert lapack.dtype == oracle.dtype == dtype
        for index, system in enumerate(systems):
            for unknowns in (lapack[index], oracle[index]):
                assert relative_residual(
                    matrices[index], unknowns, rhs[index]
                ) <= RESIDUAL_BOUND[dtype]
            if dtype is np.float32:
                continue
            fast = solution_from_unknowns(system, lapack[index])
            slow = solution_from_unknowns(system, oracle[index])
            for fast_value, slow_value in (
                (fast.lift_coefficient, slow.lift_coefficient),
                (fast.moment_coefficient(), slow.moment_coefficient()),
            ):
                assert abs(fast_value - slow_value) <= 1e-9 * max(
                    1.0, abs(slow_value))
