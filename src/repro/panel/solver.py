"""Panel-method solve of an assembled stack, and a direct solver.

:func:`solve_stack` is the one solve loop over an assembled stack: it
runs :func:`repro.linalg.batched_solve` (LAPACK) and returns one
:class:`~repro.panel.solution.PanelSolution` per system.  Everything
that solves panel systems uses it:
:func:`repro.core.api.solve_request_systems` (the path of ``analyze()``,
serving, the genetic optimizer and drag polars), :class:`PanelSolver`,
the simulated devices of :mod:`repro.hardware.device` and the
functional hybrid executor.

:class:`PanelSolver` assembles and solves airfoils directly; it is the
way to pick a closure other than the Kutta condition (the
zero-circulation closure of the cylinder oracle).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.geometry.airfoil import Airfoil
from repro.linalg import batched_solve
from repro.panel.assembly import Closure, PanelSystem, assemble_batch
from repro.panel.freestream import Freestream
from repro.panel.solution import PanelSolution
from repro.precision import Precision, PrecisionLike


@dataclasses.dataclass(frozen=True)
class PanelSolver:
    """Configurable 2-D vortex panel solver.

    Parameters
    ----------
    closure:
        System closure; the Kutta condition by default.
    precision:
        Arithmetic precision for assembly and solve (paper: both).
        Results are always post-processed in double precision.
    """

    closure: Closure = Closure.KUTTA
    precision: Precision = Precision.DOUBLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "closure", Closure.parse(self.closure))
        object.__setattr__(self, "precision", Precision.parse(self.precision))

    def solve(self, airfoil: Airfoil, freestream: Freestream = None) -> PanelSolution:
        """Solve one airfoil/free-stream configuration (a stack of one)."""
        return self.solve_batch([airfoil], freestream)[0]

    def solve_batch(self, airfoils: Sequence[Airfoil],
                    freestream: Freestream = None) -> List[PanelSolution]:
        """Solve many same-size configurations with the batched kernels.

        This is the code path the hardware model's timing describes:
        assemble a stack of matrices, then run a batched LU solve.
        """
        freestream = freestream or Freestream()
        matrices, rhs, systems = assemble_batch(
            airfoils, freestream, closure=self.closure, dtype=self.precision.dtype
        )
        return solve_stack(matrices, rhs, systems)


def solution_from_unknowns(system: PanelSystem, unknowns) -> PanelSolution:
    """The :class:`PanelSolution` of *system* for its solved unknowns.

    The circulation is widened to ``float64`` (exact for a
    single-precision solve): results are always post-processed in
    double precision.
    """
    gamma, constant = system.expand_solution(unknowns)
    return PanelSolution(
        airfoil=system.airfoil,
        freestream=system.freestream,
        closure=system.closure,
        gamma=np.asarray(gamma, dtype=np.float64),
        constant=constant,
    )


def solve_stack(matrices: np.ndarray, rhs: np.ndarray,
                systems: Sequence[PanelSystem]) -> List[PanelSolution]:
    """Solve an assembled stack; one solution per system.

    ``matrices``/``rhs``/``systems`` are what
    :func:`~repro.panel.assembly.assemble_batch` returns.  LAPACK
    factors each matrix independently, so a system's solution does not
    depend on its stackmates, and *matrices* is left untouched.
    """
    unknowns = batched_solve(matrices, rhs)
    return [solution_from_unknowns(system, row)
            for system, row in zip(systems, unknowns)]


def solve_airfoil(airfoil: Airfoil, alpha_degrees: float = 0.0, *,
                  speed: float = 1.0, closure=Closure.KUTTA,
                  precision: PrecisionLike = Precision.DOUBLE) -> PanelSolution:
    """One-call convenience API: solve an airfoil at an angle of attack."""
    solver = PanelSolver(closure=Closure.parse(closure), precision=Precision.parse(precision))
    return solver.solve(airfoil, Freestream.from_degrees(alpha_degrees, speed=speed))
