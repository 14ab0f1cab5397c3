"""Functional execution of the hybrid pipeline.

The schedules in :mod:`repro.pipeline.schedules` carry only durations;
this module runs the *same* slicing with real data: each slice's
systems are genuinely assembled (NumPy, at the device's precision),
"transferred" (the arrays change hands), and solved with the batched LU
kernels — while the virtual clock advances by the calibrated model
times.  The result carries both the physics (one
:class:`~repro.panel.solution.PanelSolution` per candidate, in order)
and the timing (a :class:`~repro.pipeline.engine.Timeline` identical to
the duration-only schedule's, which the tests assert).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.geometry.airfoil import Airfoil
from repro.hardware.host import Workstation
from repro.panel.assembly import Closure
from repro.panel.freestream import Freestream
from repro.panel.solution import PanelSolution
from repro.panel.solver import solve_stack
from repro.pipeline.engine import Timeline, simulate
from repro.pipeline.metrics import HybridMetrics, evaluate
from repro.pipeline.schedules import default_stages, hybrid
from repro.pipeline.task import Schedule
from repro.pipeline.workload import Workload, slice_sizes


@dataclasses.dataclass(frozen=True)
class FunctionalHybridResult:
    """Physics plus timing of one functional hybrid run."""

    solutions: List[PanelSolution]  # one per candidate, input order
    timeline: Timeline
    metrics: HybridMetrics

    @property
    def wall_time(self) -> float:
        """Simulated wall time of the run."""
        return self.metrics.wall_time

    def lift_coefficients(self) -> np.ndarray:
        """Convenience: cl of every candidate, in input order."""
        return np.array([s.lift_coefficient for s in self.solutions])


def execute_hybrid(airfoils: Sequence[Airfoil], workstation: Workstation,
                   n_slices: int, *, freestream: Freestream = None,
                   closure=Closure.KUTTA) -> FunctionalHybridResult:
    """Run the hybrid pipeline functionally over real airfoils.

    Every airfoil must share a panel count (as in the paper's GA
    workload).  The returned timeline is bit-identical to the one the
    duration-only :func:`repro.pipeline.schedules.hybrid` schedule
    produces for the same workload, because both are built from the
    same kernel model — the difference is that this run also computes
    the actual vortex strengths.
    """
    airfoils = list(airfoils)
    if not airfoils:
        raise ScheduleError("execute_hybrid needs at least one airfoil")
    if not workstation.has_accelerator:
        raise ScheduleError("execute_hybrid needs an accelerator")
    freestream = freestream or Freestream()
    n = airfoils[0].n_panels
    for foil in airfoils[1:]:
        if foil.n_panels != n:
            raise ScheduleError("all airfoils must share a panel count")

    device = workstation.accelerator
    cpu = workstation.cpu
    stages = default_stages(device)
    sizes = slice_sizes(len(airfoils), n_slices)

    # --- functional part: assemble and solve slice by slice -----------
    solutions: List[PanelSolution] = []
    matrix_dim = None
    cursor = 0
    for size in sizes:
        chunk = airfoils[cursor:cursor + size]
        cursor += size
        assembly = device.run_assembly(chunk, freestream, closure=closure)
        matrix_dim = assembly.matrices.shape[1]
        # "Transfer": in-process, the arrays simply change owner; the
        # timing model charges the link below.
        solutions.extend(solve_stack(assembly.matrices, assembly.rhs,
                                     assembly.systems))

    # --- timing part: the same slicing priced by the kernel models ----
    # Note the schedule is built on the *matrix* dimension (n for the
    # Kutta closure, n+1 for zero circulation), matching what is
    # actually assembled, transferred, and solved.
    workload = Workload(batch=len(airfoils), n=matrix_dim,
                        precision=workstation.precision)
    schedule: Schedule = hybrid(workload, workstation, n_slices, stages=stages)
    timeline = simulate(schedule)
    return FunctionalHybridResult(
        solutions=solutions,
        timeline=timeline,
        metrics=evaluate(timeline),
    )
