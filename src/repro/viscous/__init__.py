"""Viscous (boundary-layer) correction of the inviscid panel solution.

The paper's drag prediction: Thwaites' laminar method with Michel
transition and the Squire–Young drag formula, plus Head's turbulent
entrainment method as the documented extension.
"""

from repro.viscous.correlations import (
    LAMBDA_SEPARATION,
    head_entrainment,
    head_h1,
    head_h_from_h1,
    ludwieg_tillmann_cf,
    michel_transition_re_theta,
    thwaites_h,
    thwaites_l,
)
from repro.viscous.drag import (
    SurfaceAnalysis,
    ViscousAnalysis,
    analyze_viscous,
    squire_young_drag,
)
from repro.viscous.falkner_skan import (
    BLASIUS_WALL_SHEAR,
    SEPARATION_M,
    FalknerSkanSolution,
    blasius,
    solve_falkner_skan,
    stagnation,
)
from repro.viscous.edge_velocity import (
    SurfaceDistribution,
    stagnation_panel_index,
    surface_distributions,
)
from repro.viscous.head import TurbulentResult, solve_head
from repro.viscous.polar import Polar, PolarPoint, compute_polar
from repro.viscous.thwaites import LaminarResult, solve_thwaites

__all__ = [
    "BLASIUS_WALL_SHEAR",
    "FalknerSkanSolution",
    "LAMBDA_SEPARATION",
    "LaminarResult",
    "SEPARATION_M",
    "blasius",
    "solve_falkner_skan",
    "stagnation",
    "Polar",
    "PolarPoint",
    "SurfaceAnalysis",
    "SurfaceDistribution",
    "TurbulentResult",
    "ViscousAnalysis",
    "analyze_viscous",
    "compute_polar",
    "head_entrainment",
    "head_h1",
    "head_h_from_h1",
    "ludwieg_tillmann_cf",
    "michel_transition_re_theta",
    "solve_head",
    "solve_thwaites",
    "squire_young_drag",
    "stagnation_panel_index",
    "surface_distributions",
    "thwaites_h",
    "thwaites_l",
]
