"""Batched solves over stacks of small matrices.

The paper's workload is thousands of independent ~200 x 200 systems —
exactly the regime where batched kernels (MKL's and MAGMA's batched
``getrf``) matter.  :func:`batched_solve` is the one production solve:
LAPACK ``gesv`` through ``np.linalg.solve``, matrix by matrix.

:func:`batched_lu_factor` / :func:`batched_lu_solve` are the
from-scratch oracle it is tested against.  They vectorize across the
batch dimension: every elimination step updates all matrices in the
stack at once, so the Python-level loop count is O(n), not
O(batch * n).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import LinalgError
from repro.linalg.lu import factor_flops, solve_flops


@dataclasses.dataclass(frozen=True)
class BatchedLU:
    """Compact LU factors of a stack of matrices, ``P_b A_b = L_b U_b``.

    Attributes
    ----------
    lu:
        ``(batch, n, n)`` compact LU storage per matrix.
    pivots:
        ``(batch, n)`` row permutations (same convention as
        :class:`~repro.linalg.lu.LUFactorization`).
    """

    lu: np.ndarray
    pivots: np.ndarray

    @property
    def batch(self) -> int:
        """Number of matrices in the stack."""
        return self.lu.shape[0]

    @property
    def n(self) -> int:
        """Dimension of each matrix."""
        return self.lu.shape[1]


def _float_stack(matrices: np.ndarray) -> np.ndarray:
    """*matrices* as a floating ``(batch, n, n)`` stack (ints -> float64)."""
    a = np.asarray(matrices)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise LinalgError(f"expected a (batch, n, n) stack, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float64)  # documented int -> float64 promotion
    return a


def _rhs_columns(rhs: np.ndarray, dtype, batch: int, n: int):
    """``(rhs as (batch, n, k) in *dtype*, whether it was (batch, n))``.

    A float RHS must already have *dtype*: silently casting a float64
    RHS against a float32 stack (or the reverse) would absorb exactly
    the precision mismatch the dtype-grouped assembly path is designed
    to surface.  Integer right-hand sides are promoted.
    """
    b = np.asarray(rhs)
    if np.issubdtype(b.dtype, np.floating):
        if b.dtype != dtype:
            raise LinalgError(
                f"rhs dtype {b.dtype} does not match LU dtype {dtype}; "
                f"mixed-precision solves hide precision bugs — cast "
                f"explicitly if the widening is intended"
            )
    else:
        b = b.astype(dtype)  # documented int promotion
    vector_input = b.ndim == 2
    if vector_input:
        b = b[:, :, None]
    if b.ndim != 3 or b.shape[:2] != (batch, n):
        raise LinalgError(
            f"rhs shape {np.shape(rhs)} does not match batch {batch} x n {n}"
        )
    return b, vector_input


def batched_lu_factor(matrices: np.ndarray) -> BatchedLU:
    """Factor every matrix in a ``(batch, n, n)`` stack.

    Floating stacks are factored in their own dtype (float32 stays
    float32); non-floating stacks (integers, the convenient spelling in
    tests and scripts) are promoted to float64 — the one documented
    implicit conversion on this path.

    Raises :class:`LinalgError` naming the first singular matrix when a
    zero pivot is met.
    """
    a = np.array(_float_stack(matrices))  # a copy: factored in place
    batch, n, _ = a.shape
    pivots = np.tile(np.arange(n), (batch, 1))
    rows = np.arange(batch)
    for k in range(n):
        pivot_rows = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        bad = a[rows, pivot_rows, k] == 0.0
        if np.any(bad):
            index = int(np.nonzero(bad)[0][0])
            raise LinalgError(
                f"matrix {index} in the batch is singular: zero pivot in column {k}"
            )
        needs_swap = pivot_rows != k
        if np.any(needs_swap):
            swap = rows[needs_swap]
            target = pivot_rows[needs_swap]
            a[swap, k], a[swap, target] = a[swap, target].copy(), a[swap, k].copy()
            pivots[swap, k], pivots[swap, target] = (
                pivots[swap, target].copy(),
                pivots[swap, k].copy(),
            )
        if k + 1 < n:
            a[:, k + 1:, k] /= a[:, k, k][:, None]
            a[:, k + 1:, k + 1:] -= (
                a[:, k + 1:, k][:, :, None] * a[:, k, k + 1:][:, None, :]
            )
    return BatchedLU(lu=a, pivots=pivots)


def batched_lu_solve(factors: BatchedLU, rhs: np.ndarray) -> np.ndarray:
    """Solve every system in the batch for its right-hand side.

    ``rhs`` has shape ``(batch, n)`` for one right-hand side per matrix
    or ``(batch, n, k)`` for several; the result matches.

    The right-hand side must share the factors' float dtype: silently
    casting a float64 RHS against float32 factors (or the reverse)
    would absorb exactly the precision mismatch the dtype-grouped
    assembly path is designed to surface, so mixed float dtypes raise
    :class:`LinalgError` instead.  Non-floating (integer) right-hand
    sides are promoted to the factors' dtype — the same documented
    convenience as :func:`batched_lu_factor`'s int promotion.
    """
    lu = factors.lu
    b, vector_input = _rhs_columns(rhs, lu.dtype, factors.batch, factors.n)
    batch_index = np.arange(factors.batch)[:, None]
    x = b[batch_index, factors.pivots].copy()
    n = factors.n
    for i in range(1, n):  # forward substitution, unit lower triangle
        x[:, i] -= np.einsum("bj,bjk->bk", lu[:, i, :i], x[:, :i])
    for i in range(n - 1, -1, -1):  # back substitution
        if i + 1 < n:
            x[:, i] -= np.einsum("bj,bjk->bk", lu[:, i, i + 1:], x[:, i + 1:])
        x[:, i] /= lu[:, i, i][:, None]
    return x[:, :, 0] if vector_input else x


def batched_solve(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every system of a ``(batch, n, n)`` stack with LAPACK ``gesv``.

    This is the production solve: ``np.linalg.solve``, the LAPACK
    shipped inside numpy, factors and substitutes each matrix on its
    own, so a system's solution does not depend on its stackmates.
    :func:`batched_lu_factor` + :func:`batched_lu_solve` are its oracle.

    The contract is theirs: a float32 stack is solved in float32, an
    integer stack is promoted to float64, a float RHS must share the
    stack's dtype (:class:`LinalgError` otherwise), ``rhs`` is
    ``(batch, n)`` or ``(batch, n, k)``, and a singular member raises
    :class:`LinalgError` naming ``matrix <i>``.
    """
    a = _float_stack(matrices)
    b, vector_input = _rhs_columns(rhs, a.dtype, a.shape[0], a.shape[1])
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as error:
        for index in range(a.shape[0]):  # LAPACK does not say which one
            try:
                np.linalg.solve(a[index], b[index])
            except np.linalg.LinAlgError:
                raise LinalgError(
                    f"matrix {index} in the batch is singular"
                ) from None
        raise LinalgError(f"batched solve failed: {error}") from error
    return x[:, :, 0] if vector_input else x


def batched_flops(batch: int, n: int, n_rhs: int = 1) -> int:
    """Total flops for factoring and solving a batch (paper's 2/3 n^3)."""
    return batch * (factor_flops(n) + solve_flops(n, n_rhs))
