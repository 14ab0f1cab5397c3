"""Tests for Squire-Young drag, the viscous driver, and polars."""

import warnings

import numpy as np
import pytest

import repro.core.api
import repro.viscous.polar
from repro.errors import LinalgError, ViscousError
from repro.geometry import Airfoil, naca
from repro.panel import solve_airfoil
from repro.validation import DRAG_REFERENCES
from repro.viscous import Polar, analyze_viscous, compute_polar, squire_young_drag


class TestSquireYoung:
    def test_formula_value(self):
        # theta = 0.001, U_TE = 0.9, H = 1.5: cd = 2*0.001*0.9^3.25
        expected = 2 * 0.001 * 0.9 ** ((1.5 + 5.0) / 2.0)
        assert squire_young_drag(0.001, 0.9, 1.5) == pytest.approx(expected)

    def test_scales_with_theta(self):
        assert squire_young_drag(0.002, 1.0, 1.5) == pytest.approx(
            2 * squire_young_drag(0.001, 1.0, 1.5)
        )

    def test_chord_normalization(self):
        assert squire_young_drag(0.001, 1.0, 1.5, chord=2.0) == pytest.approx(
            0.5 * squire_young_drag(0.001, 1.0, 1.5, chord=1.0)
        )

    def test_negative_theta_rejected(self):
        with pytest.raises(ViscousError):
            squire_young_drag(-1e-4, 1.0, 1.5)

    def test_bad_velocity_rejected(self):
        with pytest.raises(ViscousError):
            squire_young_drag(1e-4, 0.0, 1.5)


class TestViscousDriver:
    def test_drag_positive(self, solved_2412):
        analysis = analyze_viscous(solved_2412, 1e6)
        assert analysis.drag_coefficient > 0

    def test_drag_in_published_band(self):
        for reference in DRAG_REFERENCES:
            solution = solve_airfoil(
                naca(reference.designation, 160), reference.alpha_degrees
            )
            analysis = analyze_viscous(solution, reference.reynolds)
            assert reference.contains(analysis.drag_coefficient), (
                f"{reference.designation} at {reference.alpha_degrees} deg: "
                f"cd = {analysis.drag_coefficient:.5f} outside "
                f"[{reference.cd_low}, {reference.cd_high}]"
            )

    def test_drag_decreases_with_reynolds_laminar(self, solved_2412):
        low = analyze_viscous(solved_2412, 1e5, use_head=False)
        high = analyze_viscous(solved_2412, 1e6, use_head=False)
        assert high.drag_coefficient < low.drag_coefficient

    def test_turbulent_drag_exceeds_laminar(self, solved_2412):
        laminar = analyze_viscous(solved_2412, 2e6, use_head=False)
        turbulent = analyze_viscous(solved_2412, 2e6, use_head=True)
        assert turbulent.drag_coefficient > laminar.drag_coefficient

    def test_lift_unchanged_by_viscous_pass(self, solved_2412):
        analysis = analyze_viscous(solved_2412, 1e6)
        assert analysis.lift_coefficient == solved_2412.lift_coefficient

    def test_lift_to_drag(self, solved_2412):
        analysis = analyze_viscous(solved_2412, 1e6)
        assert analysis.lift_to_drag == pytest.approx(
            analysis.lift_coefficient / analysis.drag_coefficient
        )

    def test_transition_detected_at_high_re(self, solved_2412):
        analysis = analyze_viscous(solved_2412, 5e6)
        assert analysis.upper.transition_s is not None
        assert analysis.upper.transition_s < 0.5

    def test_transition_moves_forward_with_re(self, solved_2412):
        low = analyze_viscous(solved_2412, 1e6)
        high = analyze_viscous(solved_2412, 8e6)
        if low.upper.transition_s and high.upper.transition_s:
            assert high.upper.transition_s <= low.upper.transition_s

    def test_bad_reynolds(self, solved_2412):
        with pytest.raises(ViscousError):
            analyze_viscous(solved_2412, -1.0)

    def test_symmetric_section_symmetric_drag(self, naca0012):
        solution = solve_airfoil(naca0012, 0.0)
        analysis = analyze_viscous(solution, 1e6)
        assert analysis.upper.drag_coefficient == pytest.approx(
            analysis.lower.drag_coefficient, rel=0.05
        )


class TestPolar:
    @pytest.fixture(scope="class")
    def polar(self):
        return compute_polar(naca("2412", 120), [-4, 0, 4], reynolds=1e6)

    def test_row_count(self, polar):
        assert len(polar.points) == 3

    def test_lift_monotonic(self, polar):
        assert np.all(np.diff(polar.lift_coefficients()) > 0)

    def test_lift_slope(self, polar):
        slope = polar.lift_slope_per_radian()
        assert 5.8 < slope < 7.5

    def test_drag_values_present(self, polar):
        drags = polar.drag_coefficients()
        assert np.all(np.isfinite(drags))
        assert np.all(drags[np.isfinite(drags)] > 0)

    def test_best_lift_to_drag(self, polar):
        best = polar.best_lift_to_drag()
        others = [p.lift_to_drag for p in polar.points if p.lift_to_drag]
        assert best.lift_to_drag == max(others)

    def test_alphas_preserved(self, polar):
        assert polar.alphas() == pytest.approx([-4.0, 0.0, 4.0])

    def test_empty_polar_has_no_lift_slope(self):
        with pytest.raises(ViscousError, match="two distinct"):
            Polar(airfoil_name="empty", reynolds=1e6, points=[]).lift_slope_per_radian()

    @pytest.mark.parametrize("alphas", [[2.0], [2.0, 2.0]])
    def test_one_alpha_polar_has_no_lift_slope(self, alphas):
        polar = compute_polar(naca("2412", 60), alphas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ViscousError, match="two distinct"):
                polar.lift_slope_per_radian()


def oracle_row(foil, alpha, reynolds, use_head):
    """One polar row solved on its own: the per-alpha reference."""
    solution = solve_airfoil(foil, alpha)
    try:
        viscous = analyze_viscous(solution, reynolds, use_head=use_head)
        cd, separated = viscous.drag_coefficient, viscous.separated
    except ViscousError:
        cd, separated = None, True
    return (float(alpha), solution.lift_coefficient, cd,
            solution.moment_coefficient(), separated)


def bits(row):
    """A row with every float spelled exactly, so ``==`` is bit-for-bit."""
    return tuple(value.hex() if isinstance(value, float) else value
                 for value in row)


class TestPolarStack:
    """A sweep is one stacked solve whose rows match per-alpha solves."""

    ALPHAS = [-6.0, -2.0, 0.0, 3.5, 8.0, 14.0, 20.0]

    @pytest.mark.parametrize("code, n_panels, reynolds, use_head", [
        ("0012", 60, 1e6, True),
        ("2412", 120, 1e7, False),
        ("4415", 160, 1e6, True),
        ("23012", 200, 1e7, False),
        ("23015", 90, 1e5, True),
    ])
    def test_rows_bit_identical_to_per_alpha_oracle(self, code, n_panels,
                                                    reynolds, use_head):
        foil = naca(code, n_panels)
        polar = compute_polar(foil, self.ALPHAS, reynolds=reynolds,
                              use_head=use_head)
        rows = [(point.alpha_degrees, point.cl, point.cd, point.cm,
                 point.separated) for point in polar.points]
        expected = [oracle_row(foil, alpha, reynolds, use_head)
                    for alpha in self.ALPHAS]
        assert [bits(row) for row in rows] == [bits(row) for row in expected]

    def test_sweep_covers_attached_and_separated_rows(self):
        polar = compute_polar(naca("2412", 120), self.ALPHAS, reynolds=1e7,
                              use_head=False)
        flags = {point.separated for point in polar.points}
        assert flags == {True, False}

    def test_one_stacked_solve_per_sweep(self, monkeypatch):
        calls = []
        solve = repro.core.api.solve_request_systems

        def counting(requests, **kwargs):
            calls.append(len(requests))
            return solve(requests, **kwargs)

        monkeypatch.setattr(repro.core.api, "solve_request_systems", counting)
        compute_polar(naca("2412", 80), self.ALPHAS)
        assert calls == [len(self.ALPHAS)]

    def test_viscous_failure_keeps_inviscid_lift(self, monkeypatch):
        def failing_above_ten(solution, reynolds, **kwargs):
            if solution.freestream.alpha_degrees > 10.0:
                raise ViscousError("massive separation")
            return analyze_viscous(solution, reynolds, **kwargs)

        foil = naca("2412", 80)
        monkeypatch.setattr(repro.viscous.polar, "analyze_viscous",
                            failing_above_ten)
        polar = compute_polar(foil, [4.0, 14.0])
        attached, failed = polar.points
        assert attached.cd is not None
        assert failed.cd is None and failed.separated
        assert failed.cl == solve_airfoil(foil, 14.0).lift_coefficient

    def test_failed_solve_is_raised(self):
        """A zero-thickness plate gives a singular system at every alpha."""
        x = 0.5 * (1.0 + np.cos(np.linspace(0.0, np.pi, 11)))
        outline = np.concatenate([np.c_[x, 0.0 * x],
                                  np.c_[x[::-1][1:], 0.0 * x[1:]]])
        with pytest.raises(LinalgError):
            compute_polar(Airfoil(outline, name="flat plate"), [0.0, 4.0])
