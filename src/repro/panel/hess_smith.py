"""The Hess–Smith source–vortex panel method.

An independent second formulation of the same physics as
:mod:`repro.panel.solver`: constant-strength *source* panels plus one
global vortex strength, with the flow-tangency boundary condition
enforced on the velocity (not the stream function) and the Kutta
condition expressed as equal-and-opposite tangential velocities on the
two trailing-edge panels.

Having two formulations that must agree is the strongest internal
consistency check the library has (the paper relies on Xfoil for the
same purpose); the test suite cross-validates their lift coefficients
on every reference section.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import PanelMethodError
from repro.geometry import points as pt
from repro.geometry.airfoil import Airfoil
from repro.linalg import batched_solve
from repro.panel.freestream import Freestream
from repro.panel.influence import _safe_log_sq, velocity_influence

#: Control points are evaluated this fraction of the local panel length
#: outside the surface, which resolves the principal-value self terms
#: (+q/2 source blowing, -gamma/2 vortex slip) without special-casing.
CONTROL_POINT_OFFSET = 1e-7


def source_velocity_influence(points: np.ndarray, airfoil: Airfoil) -> np.ndarray:
    """Velocity at *points* induced by unit-strength source panels.

    Returns ``(len(points), n_panels, 2)``; derived from the same panel
    integral machinery as the vortex influence: in the panel frame a
    unit source sheet induces

        u_xi  =  log(r_1 / r_2) / (2 pi)
        u_eta =  (theta_2 - theta_1) / (2 pi)
    """
    target = pt.as_points(points, dtype=np.float64)
    start = np.asarray(airfoil.points[:-1], dtype=np.float64)
    end = np.asarray(airfoil.points[1:], dtype=np.float64)
    h = end - start
    h_len = np.sqrt(pt.dot(h, h))
    tangent = h / h_len[:, None]
    normal_dir = -pt.perpendicular(tangent)  # right-handed local frame

    d_start = target[:, None, :] - start[None, :, :]
    d_end = target[:, None, :] - end[None, :, :]
    xi = pt.dot(d_start, tangent[None, :, :])
    xi_end = pt.dot(d_end, tangent[None, :, :])
    eta = pt.dot(d_start, normal_dir[None, :, :])

    r_start_sq = xi**2 + eta**2
    r_end_sq = xi_end**2 + eta**2
    theta_start = np.arctan2(eta, xi)
    theta_end = np.arctan2(eta, xi_end)

    two_pi = 2.0 * np.pi
    u_tangential = 0.5 * (
        _safe_log_sq(r_start_sq, np.float64) - _safe_log_sq(r_end_sq, np.float64)
    ) / two_pi
    u_normal = (theta_end - theta_start) / two_pi

    return (
        u_tangential[..., None] * tangent[None, :, :]
        + u_normal[..., None] * normal_dir[None, :, :]
    )


@dataclasses.dataclass(frozen=True)
class HessSmithSolution:
    """Source strengths, vortex strength, and derived aerodynamics."""

    airfoil: Airfoil
    freestream: Freestream
    source_strengths: np.ndarray
    vortex_strength: float
    tangential_velocities: np.ndarray

    @property
    def circulation(self) -> float:
        """Total circulation (clockwise-positive, like the main solver).

        The common vortex strength rides on every panel, so the total
        CCW circulation is ``vortex_strength * perimeter``; the library
        convention is clockwise-positive, hence the sign flip.
        """
        return -self.vortex_strength * self.airfoil.perimeter

    @property
    def lift_coefficient(self) -> float:
        """``cl`` from the Kutta–Joukowski theorem."""
        return 2.0 * self.circulation / (
            self.freestream.speed * self.airfoil.chord
        )

    @property
    def pressure_coefficients(self) -> np.ndarray:
        """``Cp`` from the surface tangential speeds."""
        ratio = self.tangential_velocities / self.freestream.speed
        return 1.0 - ratio**2

    def normal_velocity_residual(self) -> float:
        """Max residual flow through the wall (should be ~ 0)."""
        offset_points = _offset_control_points(self.airfoil)
        velocity = self._total_velocity(offset_points)
        return float(np.max(np.abs(
            np.einsum("ij,ij->i", velocity, self.airfoil.normals)
        )))

    def _total_velocity(self, points: np.ndarray) -> np.ndarray:
        source = source_velocity_influence(points, self.airfoil)
        vortex = velocity_influence(points, self.airfoil)
        induced = np.einsum("mpc,p->mc", source, self.source_strengths)
        induced += self.vortex_strength * vortex.sum(axis=1)
        return induced + self.freestream.velocity


def _offset_control_points(airfoil: Airfoil) -> np.ndarray:
    offsets = (CONTROL_POINT_OFFSET * airfoil.panel_lengths)[:, None]
    return airfoil.control_points + offsets * airfoil.normals


def solve_hess_smith(airfoil: Airfoil, freestream: Freestream = None) -> HessSmithSolution:
    """Solve the source–vortex system for one configuration.

    The system has ``n + 1`` unknowns: one source strength per panel
    plus the single vortex strength.  Rows: flow tangency at every
    control point, plus the Kutta condition
    ``V . t_first = -V . t_last`` at the trailing edge.
    """
    freestream = freestream or Freestream()
    n = airfoil.n_panels
    if n < 3:
        raise PanelMethodError("Hess-Smith needs at least 3 panels")
    control = _offset_control_points(airfoil)
    normals = airfoil.normals
    tangents = airfoil.tangents

    source = source_velocity_influence(control, airfoil)  # (n, n, 2)
    vortex = velocity_influence(control, airfoil)  # (n, n, 2)

    matrix = np.empty((n + 1, n + 1))
    rhs = np.empty(n + 1)

    # Flow tangency: sum_j q_j S_ij.n_i + tau sum_j V_ij.n_i = -U.n_i
    matrix[:n, :n] = np.einsum("ijc,ic->ij", source, normals)
    matrix[:n, n] = np.einsum("ijc,ic->i", vortex, normals)
    rhs[:n] = -normals @ freestream.velocity

    # Kutta: tangential velocities on the trailing-edge panels cancel
    # (the panels run in opposite directions around the outline).
    kutta_rows = (0, n - 1)
    tangential_source = np.einsum(
        "ijc,ic->ij", source[list(kutta_rows)], tangents[list(kutta_rows)]
    )
    tangential_vortex = np.einsum(
        "ijc,ic->i", vortex[list(kutta_rows)], tangents[list(kutta_rows)]
    )
    matrix[n, :n] = tangential_source.sum(axis=0)
    matrix[n, n] = tangential_vortex.sum()
    rhs[n] = -(tangents[0] + tangents[n - 1]) @ freestream.velocity

    unknowns = batched_solve(matrix[None], rhs[None])[0]
    strengths, tau = unknowns[:n], float(unknowns[n])

    tangential = (
        np.einsum("ijc,j,ic->i", source, strengths, tangents)
        + tau * np.einsum("ijc,ic->i", vortex, tangents)
        + tangents @ freestream.velocity
    )
    return HessSmithSolution(
        airfoil=airfoil,
        freestream=freestream,
        source_strengths=strengths,
        vortex_strength=tau,
        tangential_velocities=np.abs(tangential),
    )
