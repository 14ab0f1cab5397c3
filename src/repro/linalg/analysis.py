"""Matrix diagnostics: norms, condition estimates, residuals.

Used by the test suite and by the experiment harness to report the
numerical quality of assembled panel matrices (which are dense and
moderately conditioned, so single precision remains usable — one of the
premises behind the paper's single-precision results).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LinalgError
from repro.linalg.batched import batched_solve


def one_norm(matrix: np.ndarray) -> float:
    """Induced 1-norm (maximum absolute column sum)."""
    return float(np.max(np.sum(np.abs(matrix), axis=0)))


def infinity_norm(matrix: np.ndarray) -> float:
    """Induced infinity-norm (maximum absolute row sum)."""
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def frobenius_norm(matrix: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.sqrt(np.sum(np.abs(matrix) ** 2)))


def condition_estimate_1norm(matrix: np.ndarray) -> float:
    """Estimate the 1-norm condition number via Hager's algorithm.

    Runs a few power-like iterations on ``A^{-1}`` (through solves,
    never forming the inverse), the same approach LAPACK's ``gecon``
    uses.  Returns ``inf`` for singular input.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")

    def solve(rhs: np.ndarray) -> np.ndarray:
        return batched_solve(a[None], rhs[None])[0]

    n = a.shape[0]
    x = np.full(n, 1.0 / n)
    estimate = 0.0
    try:
        for _ in range(5):
            y = solve(x)
            estimate = float(np.sum(np.abs(y)))
            sign = np.sign(y)
            sign[sign == 0.0] = 1.0
            z = solve(sign)  # A is not symmetric, but the estimate
            j = int(np.argmax(np.abs(z)))  # remains a valid lower bound
            if np.abs(z[j]) <= z @ x:
                break
            x = np.zeros(n)
            x[j] = 1.0
    except LinalgError:
        return float("inf")
    return one_norm(a) * estimate


def relative_residual(matrix: np.ndarray, solution: np.ndarray, rhs: np.ndarray) -> float:
    """``||A x - b|| / (||A|| ||x|| + ||b||)`` in the infinity norm.

    A backward-error style measure: values near machine epsilon mean the
    solve is as accurate as the data deserves.
    """
    a = np.asarray(matrix, dtype=np.float64)
    x = np.asarray(solution, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    residual = np.max(np.abs(a @ x - b))
    scale = infinity_norm(a) * np.max(np.abs(x)) + np.max(np.abs(b))
    if scale == 0.0:
        return 0.0
    return float(residual / scale)
