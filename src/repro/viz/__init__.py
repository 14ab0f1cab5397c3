"""Visualization helpers: ASCII terminal plots and standalone SVG."""

from repro.viz.ascii_plot import plot_airfoil, plot_points, plot_series
from repro.viz.svg import airfoil_svg, flow_svg, gantt_svg

__all__ = [
    "airfoil_svg",
    "flow_svg",
    "gantt_svg",
    "plot_airfoil",
    "plot_points",
    "plot_series",
]
