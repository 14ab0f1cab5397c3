"""Tests for the panel solver and solution post-processing."""

import numpy as np
import pytest

from repro.geometry import naca, pitch
from repro.panel import Closure, Freestream, PanelSolver, solve_airfoil
from repro.precision import Precision


class TestSolverBasics:
    def test_boundary_condition_satisfied(self, solved_2412):
        assert solved_2412.boundary_residual() < 1e-10

    def test_kutta_condition_held(self, solved_2412):
        assert solved_2412.gamma[0] == pytest.approx(-solved_2412.gamma[-1])

    def test_gamma_immutable(self, solved_2412):
        with pytest.raises((ValueError, RuntimeError)):
            solved_2412.gamma[0] = 1.0

    def test_precision_spellings(self):
        solver = PanelSolver(precision="sp")
        assert solver.precision is Precision.SINGLE

    def test_single_precision_close_to_double(self, naca2412):
        fs = Freestream.from_degrees(4.0)
        double = PanelSolver(precision="double").solve(naca2412, fs)
        single = PanelSolver(precision="single").solve(naca2412, fs)
        assert single.lift_coefficient == pytest.approx(
            double.lift_coefficient, abs=2e-3
        )

    def test_convenience_wrapper(self, naca2412):
        sol = solve_airfoil(naca2412, 4.0)
        assert sol.freestream.alpha_degrees == pytest.approx(4.0)

    def test_batch_matches_individual(self):
        foils = [naca("2412", 60), naca("0012", 60), naca("4412", 60)]
        fs = Freestream.from_degrees(3.0)
        solver = PanelSolver()
        batch = solver.solve_batch(foils, fs)
        for foil, solution in zip(foils, batch):
            single = solver.solve(foil, fs)
            assert solution.lift_coefficient == pytest.approx(
                single.lift_coefficient, abs=1e-10
            )


class TestAerodynamics:
    def test_positive_lift_for_cambered_at_zero_alpha(self):
        sol = solve_airfoil(naca("2412", 160), 0.0)
        assert 0.2 < sol.lift_coefficient < 0.32

    def test_zero_lift_for_symmetric_at_zero_alpha(self, naca0012):
        sol = solve_airfoil(naca0012, 0.0)
        assert abs(sol.lift_coefficient) < 1e-6

    def test_lift_increases_with_alpha(self, naca0012):
        lifts = [solve_airfoil(naca0012, a).lift_coefficient for a in (0, 2, 4, 6)]
        assert np.all(np.diff(lifts) > 0)

    def test_lift_slope_near_two_pi(self, naca0012):
        cl2 = solve_airfoil(naca0012, 2.0).lift_coefficient
        cl0 = solve_airfoil(naca0012, 0.0).lift_coefficient
        slope = (cl2 - cl0) / np.radians(2.0)
        # Thickness raises the slope a few percent above 2 pi.
        assert 2 * np.pi * 0.98 < slope < 2 * np.pi * 1.15

    def test_kutta_joukowski_matches_pressure_integral(self, solved_2412):
        assert solved_2412.lift_coefficient == pytest.approx(
            solved_2412.lift_coefficient_pressure, abs=5e-3
        )

    def test_dalembert_zero_pressure_drag(self, solved_2412):
        assert abs(solved_2412.pressure_drag_coefficient) < 2e-3

    def test_moment_sign_for_cambered(self, solved_2412):
        # Positive camber -> nose-down (negative) quarter-chord moment.
        assert -0.12 < solved_2412.moment_coefficient() < -0.02

    def test_moment_about_other_point_differs(self, solved_2412):
        le = solved_2412.moment_coefficient(reference=(0.0, 0.0))
        c4 = solved_2412.moment_coefficient()
        assert le != pytest.approx(c4, abs=1e-3)

    def test_moment_transfer_theorem(self, solved_2412):
        """cm(LE) = cm(c/4) - 0.25 * (force_y) in unit-chord coordinates."""
        le = solved_2412.moment_coefficient(reference=(0.0, 0.0))
        c4 = solved_2412.moment_coefficient(reference=(0.25, 0.0))
        force_y = solved_2412.force_coefficient_vector[1]
        assert le == pytest.approx(c4 - 0.25 * force_y, abs=1e-10)

    def test_stagnation_pressure_bound(self, solved_2412):
        cp = solved_2412.pressure_coefficients
        assert cp.max() <= 1.0 + 1e-9
        assert cp.max() > 0.97  # a stagnation point exists

    def test_suction_peak_on_upper_surface(self, solved_2412):
        cp = solved_2412.pressure_coefficients
        peak_panel = int(np.argmin(cp))
        assert solved_2412.airfoil.control_points[peak_panel, 1] > 0

    def test_alpha_symmetry_of_symmetric_section(self, naca0012):
        plus = solve_airfoil(naca0012, 5.0).lift_coefficient
        minus = solve_airfoil(naca0012, -5.0).lift_coefficient
        assert plus == pytest.approx(-minus, abs=1e-6)

    def test_rotation_invariance(self, naca2412):
        """Pitching the geometry = changing the angle of attack."""
        direct = solve_airfoil(naca2412, 5.0).lift_coefficient
        pitched = solve_airfoil(pitch(naca2412, np.radians(5.0)), 0.0).lift_coefficient
        assert pitched == pytest.approx(direct, abs=5e-3)

    def test_speed_invariance_of_coefficients(self, naca2412):
        slow = PanelSolver().solve(naca2412, Freestream.from_degrees(4.0, speed=1.0))
        fast = PanelSolver().solve(naca2412, Freestream.from_degrees(4.0, speed=7.0))
        assert slow.lift_coefficient == pytest.approx(fast.lift_coefficient, rel=1e-9)
        assert slow.pressure_coefficients == pytest.approx(
            fast.pressure_coefficients, abs=1e-9
        )


class TestFieldEvaluation:
    def test_far_field_approaches_freestream(self, solved_2412):
        velocity = solved_2412.velocity_at([[150.0, 90.0]])[0]
        assert velocity == pytest.approx(solved_2412.freestream.velocity, abs=1e-3)

    def test_interior_is_stagnant(self, solved_2412):
        interior = solved_2412.velocity_at([[0.5, 0.0]])[0]
        assert np.linalg.norm(interior) < 0.05

    def test_velocity_is_stream_gradient(self, solved_2412):
        point = np.array([0.6, 0.7])
        h = 1e-6
        v = solved_2412.velocity_at([point])[0]
        dy = (solved_2412.stream_function_at([point + [0, h]])
              - solved_2412.stream_function_at([point - [0, h]]))[0] / (2 * h)
        dx = (solved_2412.stream_function_at([point + [h, 0]])
              - solved_2412.stream_function_at([point - [h, 0]]))[0] / (2 * h)
        assert v == pytest.approx([dy, -dx], abs=1e-7)

    def test_surface_tangential_speed_matches_gamma(self, solved_2412):
        foil = solved_2412.airfoil
        just_outside = foil.control_points + 1e-6 * foil.normals
        velocity = solved_2412.velocity_at(just_outside)
        tangential = np.einsum("ij,ij->i", velocity, foil.tangents)
        # Exterior tangential velocity equals -gamma (clockwise-positive
        # strengths); skip the trailing-edge panels where the finite-core
        # offset trick is least accurate.
        interior_panels = slice(5, -5)
        assert tangential[interior_panels] == pytest.approx(
            -solved_2412.gamma[interior_panels], abs=0.05
        )
