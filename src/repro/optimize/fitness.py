"""Fitness evaluation: lift-to-drag ratio at zero angle of attack.

The paper's fitness function "is proportional to the lift-to-drag ratio
at zero angle of attack".  Each evaluation is one full inner-solver
pass: discretize the B-spline candidate, assemble and solve the panel
system, run the viscous correction, and read off ``cl / cd``.
Infeasible or failed candidates receive ``-inf``.

Both scorers solve through :func:`repro.core.api.solve_request_systems`,
the path serving uses: :meth:`FitnessEvaluator.evaluate` as a stack of
one, :meth:`FitnessEvaluator.evaluate_population` as one stack per
generation on an execution backend.  LAPACK solves each matrix of a
stack on its own, so a genome gets the same record either way.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import (
    ExecutionBackendError,
    GeometryError,
    LinalgError,
    ViscousError,
)
from repro.optimize.genome import GenomeLayout
from repro.viscous.drag import analyze_viscous

#: Fitness assigned to candidates that cannot be evaluated.
INFEASIBLE_FITNESS = -math.inf


@dataclasses.dataclass(frozen=True)
class EvaluationRecord:
    """Everything learned about one candidate."""

    fitness: float
    cl: Optional[float] = None
    cd: Optional[float] = None
    failure: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """True when the candidate produced a finite fitness."""
        return math.isfinite(self.fitness)


@dataclasses.dataclass(frozen=True)
class FitnessEvaluator:
    """Configured lift-to-drag evaluator.

    Parameters
    ----------
    layout:
        Genome interpretation (coefficient counts, bounds, degree).
    n_panels:
        Discretization of each candidate (the paper uses 200).
    reynolds:
        Chord Reynolds number of the viscous correction.
    alpha_degrees:
        Angle of attack of the evaluation (the paper uses zero).
    min_thickness:
        Feasibility floor on the candidate's interior thickness.
    use_head:
        Continue the boundary layer turbulently past transition.
    """

    layout: GenomeLayout
    n_panels: int = 200
    reynolds: float = 5e5
    alpha_degrees: float = 0.0
    min_thickness: float = 0.01
    use_head: bool = True

    def build_airfoil(self, genome: np.ndarray):
        """Discretize one genome, or return the failed record instead.

        Returns ``(airfoil, None)`` for a feasible candidate and
        ``(None, record)`` when the genome fails before the solve.  The
        split lets the jobs subsystem collect a generation's airfoils
        into one stacked batch while keeping the exact pre-solve
        semantics of :meth:`evaluate`.
        """
        parametrization = self.layout.to_parametrization(genome)
        if not parametrization.is_feasible(min_thickness=self.min_thickness):
            return None, EvaluationRecord(
                INFEASIBLE_FITNESS, failure="thin or crossed section"
            )
        try:
            return parametrization.to_airfoil(self.n_panels), None
        except GeometryError as error:
            return None, EvaluationRecord(
                INFEASIBLE_FITNESS, failure=f"geometry: {error}"
            )

    def classify_solution(self, solution) -> EvaluationRecord:
        """Turn one solved panel system into its evaluation record.

        Shared by :meth:`evaluate` and :meth:`evaluate_population` so
        both classify identically (bit-for-bit).
        """
        cl = solution.lift_coefficient
        if cl <= 0.0:
            # Negative lift at the design point: valid geometry, hopeless
            # candidate.  Rank it below every lifting candidate but above
            # the infeasible ones.
            return EvaluationRecord(cl, cl=cl, failure="non-positive lift")
        try:
            viscous = analyze_viscous(solution, self.reynolds, use_head=self.use_head)
            cd = viscous.drag_coefficient
        except ViscousError as error:
            return EvaluationRecord(INFEASIBLE_FITNESS, cl=cl,
                                    failure=f"boundary layer: {error}")
        if cd <= 0.0:
            return EvaluationRecord(INFEASIBLE_FITNESS, cl=cl, cd=cd,
                                    failure="non-positive drag")
        return EvaluationRecord(cl / cd, cl=cl, cd=cd)

    def evaluate(self, genome: np.ndarray) -> EvaluationRecord:
        """Score one genome (a stack of one, solved inline)."""
        from repro.core.api import solve_request_systems

        airfoil, failed = self.build_airfoil(genome)
        if failed is not None:
            return failed
        return self._record(solve_request_systems([self._request(airfoil)])[0])

    def evaluate_population(self, genomes: Sequence[np.ndarray], *,
                            backend=None,
                            stage_hook: Optional[Callable] = None,
                            kernel: Optional[str] = None,
                            ) -> List[EvaluationRecord]:
        """Score a whole generation as one stack; one record per genome.

        Every solvable genome joins one
        :meth:`~repro.parallel.ExecutionBackend.solve` call on *backend*
        (``None`` for the process-wide default, as in
        :func:`repro.core.api.evaluate_requests`), which forwards
        ``stage_hook`` stamps and the assembly ``kernel`` (``None``
        defers to ``REPRO_ASSEMBLY_KERNEL``).  The records are
        bit-for-bit those of ``[self.evaluate(g) for g in genomes]``.
        """
        from repro.core.api import solve_request_systems
        from repro.parallel import resolve_backend

        records: List[Optional[EvaluationRecord]] = [None] * len(genomes)
        pending = []  # (index, request) for solvable candidates
        for index, genome in enumerate(genomes):
            airfoil, failed = self.build_airfoil(genome)
            if failed is not None:
                records[index] = failed
            else:
                pending.append((index, self._request(airfoil)))
        if pending:
            solved = resolve_backend(backend).solve(
                [request for _, request in pending],
                stage_hook=stage_hook, kernel=kernel,
            )
            for (index, request), entry in zip(pending, solved):
                if isinstance(entry, ExecutionBackendError):
                    # Its worker shard crashed: re-score it inline.
                    entry = solve_request_systems([request], kernel=kernel)[0]
                records[index] = self._record(entry)
        return records

    def _request(self, airfoil):
        """The inviscid solve request for one discretized candidate.

        The viscous pass runs in :meth:`classify_solution`, after the
        lift-sign check, so the request skips it.
        """
        from repro.core.api import AnalyzeRequest

        return AnalyzeRequest(airfoil=airfoil,
                              alpha_degrees=self.alpha_degrees,
                              reynolds=None, n_panels=airfoil.n_panels)

    def _record(self, entry) -> EvaluationRecord:
        """The record for one ``solve_request_systems`` entry."""
        if isinstance(entry, LinalgError):
            return EvaluationRecord(INFEASIBLE_FITNESS, failure=f"solve: {entry}")
        if isinstance(entry, BaseException):
            raise entry
        return self.classify_solution(entry)

    def __call__(self, genome: np.ndarray) -> float:
        """Score one genome, returning only the fitness value."""
        return self.evaluate(genome).fitness
