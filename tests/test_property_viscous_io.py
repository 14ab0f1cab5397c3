"""Property-based tests: viscous invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.viscous import (
    ludwieg_tillmann_cf,
    solve_thwaites,
    thwaites_h,
    thwaites_l,
)
from repro.viscous.edge_velocity import SurfaceDistribution


def edge_distributions():
    """Smooth positive edge-velocity distributions U(s) = a + b s."""
    return st.tuples(
        st.floats(0.5, 2.0),  # U at the start
        st.floats(-0.4, 1.5),  # slope
        st.floats(0.3, 1.5),  # surface length
    ).map(lambda t: SurfaceDistribution(
        name="prop",
        s=np.linspace(1e-4, t[2], 200),
        velocity=np.maximum(t[0] + t[1] * np.linspace(1e-4, t[2], 200), 0.05),
        panel_indices=np.arange(200),
    ))


class TestViscousProperties:
    @given(surface=edge_distributions(), nu=st.floats(1e-7, 1e-5))
    @settings(max_examples=50, deadline=None)
    def test_thwaites_invariants(self, surface, nu):
        result = solve_thwaites(surface, nu)
        # Momentum thickness is positive and finite everywhere.
        assert np.all(result.theta > 0)
        assert np.all(np.isfinite(result.theta))
        # Shape factor stays in the laminar range of the correlations.
        assert np.all(result.shape_factor >= 2.0)
        assert np.all(result.shape_factor <= 3.6)
        # Skin friction is non-negative up to any separation point.
        end = result.separation_index or len(surface.s)
        assert np.all(result.cf[:max(end - 1, 1)] >= -1e-12)

    @given(surface=edge_distributions(), nu=st.floats(1e-7, 1e-6))
    @settings(max_examples=30, deadline=None)
    def test_thicker_fluid_thickens_layer(self, surface, nu):
        thin = solve_thwaites(surface, nu)
        thick = solve_thwaites(surface, 4.0 * nu)
        # theta ~ sqrt(nu): quadrupling nu doubles the thickness.
        ratio = thick.theta[-1] / thin.theta[-1]
        assert ratio == pytest.approx(2.0, rel=1e-6)

    @given(h=st.floats(1.2, 2.4), re=st.floats(1e2, 1e7))
    @settings(max_examples=60, deadline=None)
    def test_ludwieg_tillmann_positive_bounded(self, h, re):
        cf = float(ludwieg_tillmann_cf(h, re))
        assert 0.0 < cf < 0.1

    @given(lam=st.floats(-0.2, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_correlations_finite_everywhere(self, lam):
        assert np.isfinite(thwaites_h(lam))
        assert np.isfinite(thwaites_l(lam))
        assert float(thwaites_h(lam)) > 1.9

