"""Dense linear algebra substrate: LU factorization, batched solves.

Everything is implemented from scratch on top of NumPy array
operations; no ``numpy.linalg`` or SciPy solver is called by the panel
method, mirroring the paper's reliance on its own MKL/MAGMA kernels.
The test suite cross-checks these routines against ``numpy.linalg``.
"""

from repro.linalg.analysis import (
    condition_estimate_1norm,
    frobenius_norm,
    infinity_norm,
    one_norm,
    relative_residual,
)
from repro.linalg.refinement import RefinementResult, refine_solve
from repro.linalg.batched import (
    BatchedLU,
    batched_flops,
    batched_lu_factor,
    batched_lu_solve,
    batched_solve,
)
from repro.linalg.lu import (
    LUFactorization,
    factor_flops,
    lu_factor,
    lu_solve,
    solve,
    solve_flops,
)
from repro.linalg.triangular import solve_lower, solve_lower_unit, solve_upper

__all__ = [
    "BatchedLU",
    "LUFactorization",
    "RefinementResult",
    "refine_solve",
    "batched_flops",
    "batched_lu_factor",
    "batched_lu_solve",
    "batched_solve",
    "condition_estimate_1norm",
    "factor_flops",
    "frobenius_norm",
    "infinity_norm",
    "lu_factor",
    "lu_solve",
    "one_norm",
    "relative_residual",
    "solve",
    "solve_flops",
    "solve_lower",
    "solve_lower_unit",
    "solve_upper",
]
