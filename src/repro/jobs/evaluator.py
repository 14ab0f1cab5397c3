"""Batched generation evaluation through the shared serving path.

The serial GA loop scores a generation one
:meth:`~repro.optimize.fitness.FitnessEvaluator.evaluate` call at a
time.  :class:`BatchedGenerationEvaluator` is the drop-in replacement
(:attr:`repro.optimize.ga.GeneticOptimizer.evaluate_all`) that stacks
every feasible genome of a generation into one batch and routes it
through the shared backend path in :mod:`repro.core.api` — the same
stacked-assembly + batched-solve code the HTTP ``/analyze`` traffic uses,
including the ``REPRO_EXEC_BACKEND=process`` worker pool, whose
workers solve their shards and send each circulation row back over a
pipe.

**Bit-for-bit parity.**  LAPACK solves each matrix of a stack on its
own, and the serial path evaluates through
:meth:`PanelSolver.solve_batch` as a stack of one, so a genome scored
here produces *exactly* the bytes it would produce serially:

* pre-solve feasibility/geometry failures come from the shared
  :meth:`FitnessEvaluator.build_airfoil`;
* the solve itself is ``assemble`` + :func:`repro.linalg.batched_solve`
  in both paths, and a matrix's solution does not depend on its
  stackmates;
* post-solve classification (lift sign, viscous drag, ratios) is the
  shared :meth:`FitnessEvaluator.classify_solution`.

The one divergence the backend can introduce is *failure blast
radius*: a singular matrix fails its whole (size, dtype) group, and a
killed worker process fails its whole shard.  Genomes whose batch
outcome is a :class:`~repro.errors.LinalgError` or
:class:`~repro.errors.ExecutionBackendError` are therefore re-evaluated
serially — the serial path is a stack of one, so the retried record is
the one the serial loop would have produced.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core.api import AnalyzeRequest
from repro.errors import ExecutionBackendError, LinalgError
from repro.optimize.fitness import EvaluationRecord, FitnessEvaluator
from repro.panel.assembly import Closure
from repro.precision import Precision


class BatchedGenerationEvaluator:
    """Evaluate whole GA generations through the batched backend path.

    Parameters
    ----------
    evaluator:
        The fitness evaluator whose semantics are reproduced.
    backend:
        Execution backend routing (same contract as
        :func:`repro.core.api.evaluate_requests`): ``None`` for the
        process-wide default, a backend instance to share one pool with
        the serving path.
    stage_hook:
        Optional ``(stage, start, end, count)`` callback receiving the
        backend's assembly/solve stamps (fed into per-generation trace
        spans by the runner).
    """

    def __init__(self, evaluator: FitnessEvaluator, *, backend=None,
                 stage_hook: Optional[Callable] = None,
                 kernel: Optional[str] = None) -> None:
        self.evaluator = evaluator
        self.backend = backend
        self.stage_hook = stage_hook
        #: Assembly-kernel selection forwarded to the backend (``None``
        #: defers to ``REPRO_ASSEMBLY_KERNEL``; see ``docs/kernels.md``).
        self.kernel = kernel
        # The shared backend path assembles with the Kutta closure in
        # the request's precision; an evaluator configured differently
        # must keep the (equally correct) serial stack-of-one path.
        solver = evaluator.solver
        self.batchable = (solver.closure == Closure.KUTTA
                          and solver.precision == Precision.DOUBLE)

    def __call__(self, population) -> List[EvaluationRecord]:
        """One :class:`EvaluationRecord` per genome, in order."""
        if not self.batchable:
            return [self.evaluator.evaluate(genome) for genome in population]
        records: List[Optional[EvaluationRecord]] = [None] * len(population)
        pending = []  # (index, genome, request) for solvable candidates
        for index, genome in enumerate(population):
            airfoil, failed = self.evaluator.build_airfoil(genome)
            if failed is not None:
                records[index] = failed
                continue
            pending.append((index, genome, AnalyzeRequest(
                airfoil=airfoil,
                alpha_degrees=self.evaluator.alpha_degrees,
                reynolds=None,
                n_panels=airfoil.n_panels,
            )))
        if pending:
            from repro.parallel import resolve_backend

            solved = resolve_backend(self.backend).solve(
                [request for _, _, request in pending],
                stage_hook=self.stage_hook, kernel=self.kernel,
            )
            for (index, genome, _request), entry in zip(pending, solved):
                records[index] = self._classify(genome, entry)
        return records

    def _classify(self, genome: np.ndarray, entry) -> EvaluationRecord:
        if isinstance(entry, (LinalgError, ExecutionBackendError)):
            # Group/shard-level failure: the error may belong to a
            # stackmate, not this genome.  Retry serially — a stack of
            # one — which yields exactly the serial loop's record
            # (including a genuine per-genome solve failure).
            return self.evaluator.evaluate(genome)
        if isinstance(entry, BaseException):
            # Anything else (assembly/geometry faults past the
            # feasibility gate) would propagate out of the serial loop
            # too: keep that contract.
            raise entry
        return self.evaluator.classify_solution(entry)
