"""Geometry substrate: points, airfoils, NACA sections, B-splines.

This package provides every geometric building block the panel method
and the genetic optimizer rely on.  The central type is
:class:`~repro.geometry.airfoil.Airfoil`, an immutable closed polyline
with cached panel quantities.
"""

from repro.geometry.airfoil import Airfoil
from repro.geometry.bspline import BSplineAirfoil, BSplineCurve, open_uniform_knots
from repro.geometry.io import read_dat, read_dat_string, to_dat_string, write_dat
from repro.geometry.naca import naca, naca4, naca5
from repro.geometry.refine import outline_curvature, repanel
from repro.geometry.sampling import (
    cosine_spacing,
    half_cosine_spacing,
    spacing,
    uniform_spacing,
)
from repro.geometry.transforms import normalize_chord, pitch, rotate, scale, translate

__all__ = [
    "Airfoil",
    "BSplineAirfoil",
    "BSplineCurve",
    "cosine_spacing",
    "half_cosine_spacing",
    "naca",
    "naca4",
    "naca5",
    "normalize_chord",
    "outline_curvature",
    "open_uniform_knots",
    "pitch",
    "read_dat",
    "read_dat_string",
    "repanel",
    "rotate",
    "scale",
    "spacing",
    "to_dat_string",
    "translate",
    "uniform_spacing",
    "write_dat",
]
