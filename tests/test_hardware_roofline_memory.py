"""Tests for the roofline analysis."""

import pytest

from repro.errors import HardwareModelError
from repro.hardware import (
    DUAL_E5_2630_V3,
    E5_2630_V3,
    HALF_K80,
    XEON_PHI_7120,
    Regime,
    assembly_intensity,
    roofline_point,
    solve_intensity,
)
from repro.precision import Precision


class TestIntensities:
    def test_assembly_intensity_values(self):
        assert assembly_intensity(Precision.SINGLE) == pytest.approx(130 / 4)
        assert assembly_intensity(Precision.DOUBLE) == pytest.approx(130 / 8)

    def test_solve_intensity_grows_with_n(self):
        assert solve_intensity(400, Precision.DOUBLE) > solve_intensity(
            100, Precision.DOUBLE
        )

    def test_solve_intensity_leading_order(self):
        """Intensity ~ n / (3 * itemsize) for large n."""
        n = 1000
        approx = n / (3 * 8)
        assert solve_intensity(n, Precision.DOUBLE) == pytest.approx(
            approx, rel=0.02
        )


class TestRooflinePoints:
    @pytest.mark.parametrize("device", [E5_2630_V3, XEON_PHI_7120, HALF_K80])
    @pytest.mark.parametrize("kernel", ["assembly", "solve"])
    def test_kernels_are_compute_bound(self, device, kernel):
        """Both of the paper's kernels sit right of every ridge point."""
        point = roofline_point(device, kernel)
        assert point.regime is Regime.COMPUTE_BOUND
        assert point.intensity > point.ridge_intensity

    def test_achieved_below_roofline(self):
        for device in (E5_2630_V3, XEON_PHI_7120, HALF_K80):
            for kernel in ("assembly", "solve"):
                point = roofline_point(device, kernel)
                assert 0.0 < point.roofline_fraction < 1.0

    def test_cpu_solve_runs_closest_to_its_roofline(self):
        """The Section 3 story in roofline terms: the CPU's batched LU
        achieves the largest fraction of its bound, the GPU's the
        smallest — that gap is why the hybrid scheme exists."""
        cpu = roofline_point(DUAL_E5_2630_V3, "solve")
        phi = roofline_point(XEON_PHI_7120, "solve")
        gpu = roofline_point(HALF_K80, "solve")
        assert cpu.roofline_fraction > phi.roofline_fraction
        assert cpu.roofline_fraction > gpu.roofline_fraction

    def test_gpu_assembly_beats_its_solve(self):
        gpu_assembly = roofline_point(HALF_K80, "assembly")
        gpu_solve = roofline_point(HALF_K80, "solve")
        assert gpu_assembly.roofline_fraction > gpu_solve.roofline_fraction

    def test_unknown_kernel(self):
        with pytest.raises(HardwareModelError, match="unknown kernel"):
            roofline_point(HALF_K80, "fft")

    def test_precision_changes_intensity(self):
        sp = roofline_point(HALF_K80, "assembly", precision="single")
        dp = roofline_point(HALF_K80, "assembly", precision="double")
        assert sp.intensity == pytest.approx(2 * dp.intensity)
