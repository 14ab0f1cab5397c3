"""Dense linear algebra substrate: batched solves, LU factorization.

:func:`batched_solve` is the one production solve every panel system
goes through: LAPACK ``gesv`` as shipped inside numpy
(``np.linalg.solve``), the counterpart of the vendor MKL/MAGMA kernels
the paper calls.  The from-scratch LU kernels (:func:`lu_factor`,
:func:`batched_lu_factor` and their solves) are its test oracle, and
:func:`refine_solve` builds float32 iterative refinement on them.
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
