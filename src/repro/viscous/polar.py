"""Drag polars: lift/drag/moment swept over angle of attack.

A sweep is one stack of independent systems, the paper's batch shape:
every alpha is assembled and LU-solved together through
:func:`repro.core.api.solve_request_systems`, then each solution gets
the viscous correction.  Used by the examples and by Figure-2-style
reporting.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ViscousError
from repro.geometry.airfoil import Airfoil
from repro.viscous.drag import analyze_viscous


@dataclasses.dataclass(frozen=True)
class PolarPoint:
    """One row of a drag polar."""

    alpha_degrees: float
    cl: float
    cd: Optional[float]
    cm: float
    separated: bool

    @property
    def lift_to_drag(self) -> Optional[float]:
        """``cl / cd`` or ``None`` when drag is unavailable."""
        if self.cd is None or self.cd <= 0.0:
            return None
        return self.cl / self.cd


@dataclasses.dataclass(frozen=True)
class Polar:
    """A computed drag polar for one airfoil and Reynolds number."""

    airfoil_name: str
    reynolds: float
    points: List[PolarPoint]

    def alphas(self) -> np.ndarray:
        """Angles of attack of the rows, in degrees."""
        return np.array([point.alpha_degrees for point in self.points])

    def lift_coefficients(self) -> np.ndarray:
        """Lift coefficients of the rows."""
        return np.array([point.cl for point in self.points])

    def drag_coefficients(self) -> np.ndarray:
        """Drag coefficients (NaN where unavailable)."""
        return np.array([
            point.cd if point.cd is not None else np.nan for point in self.points
        ])

    def best_lift_to_drag(self) -> PolarPoint:
        """The row with the highest ``cl / cd``."""
        usable = [point for point in self.points if point.lift_to_drag is not None]
        if not usable:
            raise ViscousError("polar has no rows with a valid drag value")
        return max(usable, key=lambda point: point.lift_to_drag)

    def lift_slope_per_radian(self) -> float:
        """Least-squares ``d cl / d alpha`` in 1/radian (thin airfoil: 2 pi).

        A slope needs rows at two or more distinct angles of attack.
        """
        alphas = np.radians(self.alphas())
        if len(np.unique(alphas)) < 2:
            raise ViscousError(
                "a lift slope needs at least two distinct angles of attack, "
                f"got {len(self.points)} row(s)"
            )
        slope, _ = np.polyfit(alphas, self.lift_coefficients(), 1)
        return float(slope)


def compute_polar(airfoil: Airfoil, alphas_degrees: Sequence[float], *,
                  reynolds: float = 1e6, use_head: bool = True) -> Polar:
    """Sweep angle of attack and assemble a polar.

    The whole sweep is solved as one stack by
    :func:`repro.core.api.solve_request_systems`; LAPACK solves each
    matrix of the stack on its own, so every row is bit-identical to
    solving its alpha alone.  A failed solve raises.  Rows where the
    viscous correction fails keep their inviscid lift with
    ``cd = None`` and ``separated = True`` rather than aborting the
    sweep.
    """
    # Imported here: repro.core.api imports this package.
    from repro.core.api import AnalyzeRequest, solve_request_systems

    requests = [
        AnalyzeRequest(airfoil=airfoil, alpha_degrees=alpha, reynolds=None,
                       n_panels=airfoil.n_panels)
        for alpha in alphas_degrees
    ]
    points: List[PolarPoint] = []
    for request, solution in zip(requests, solve_request_systems(requests)):
        if isinstance(solution, Exception):
            raise solution
        try:
            viscous = analyze_viscous(solution, reynolds, use_head=use_head)
        except ViscousError:
            cd, separated = None, True
        else:
            cd, separated = viscous.drag_coefficient, viscous.separated
        points.append(PolarPoint(
            alpha_degrees=request.alpha_degrees, cl=solution.lift_coefficient,
            cd=cd, cm=solution.moment_coefficient(), separated=separated,
        ))
    return Polar(airfoil_name=airfoil.name, reynolds=reynolds, points=points)
