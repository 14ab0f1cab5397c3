"""Tests for the high-level API and the command-line interface."""

import json

import pytest

from repro import analyze, optimize, simulate_hybrid
from repro.cli import main
from repro.core.api import AnalyzeRequest
from repro.geometry import naca


class TestAnalyze:
    def test_by_designation(self):
        analysis = analyze("2412", alpha_degrees=4.0, n_panels=120)
        assert 0.6 < analysis.cl < 0.85
        assert analysis.cd is not None and analysis.cd > 0
        assert analysis.lift_to_drag == pytest.approx(analysis.cl / analysis.cd)

    def test_by_airfoil_object(self, naca0012):
        analysis = analyze(naca0012, alpha_degrees=0.0)
        assert abs(analysis.cl) < 1e-6

    def test_inviscid_only(self):
        analysis = analyze("2412", alpha_degrees=2.0, reynolds=None,
                           n_panels=100)
        assert analysis.cd is None
        assert analysis.lift_to_drag is None

    def test_summary_contents(self):
        summary = analyze("2412", alpha_degrees=4.0, n_panels=100).summary()
        assert "cl" in summary and "cd" in summary and "Re" in summary

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("reynolds", [1e6, None],
                             ids=["viscous", "inviscid"])
    def test_library_and_served_paths_are_bit_identical(self, capsys,
                                                        precision, reynolds):
        """``analyze`` (the library entry point), ``AnalyzeRequest.run``
        (the serving path) and ``analyze --json`` share one batched
        solve, so their numbers agree to the last bit."""
        library = analyze("2412", 4.0, reynolds=reynolds, precision=precision)
        served = AnalyzeRequest(airfoil="2412", alpha_degrees=4.0,
                                reynolds=reynolds, precision=precision).run()
        assert (library.solution.gamma.tobytes()
                == served.solution.gamma.tobytes())
        assert library.cl == served.cl
        assert library.cd == served.cd
        if precision == "single":
            return  # the CLI always analyzes in double precision
        assert main(["analyze", "2412", "--alpha", "4", "--json",
                     "--reynolds", str(reynolds or 0)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cl"] == library.cl
        assert record["cd"] == library.cd

    def test_naca_prefix_stripped(self):
        analysis = analyze("NACA 2412", alpha_degrees=0.0, reynolds=None,
                           n_panels=100)
        assert analysis.solution.airfoil.name == "NACA 2412"


class TestOptimize:
    def test_short_run(self):
        history = optimize(population_size=12, generations=2, n_panels=60,
                           seed=3)
        assert len(history.generations) == 2
        assert history.champion.fitness > 0


class TestSimulateHybrid:
    def test_gpu_speedup(self):
        experiment = simulate_hybrid(accelerator="k80-half", sockets=2,
                                     precision="double", n_slices=10)
        assert 2.5 < experiment.speedup < 3.6

    def test_phi_speedup(self):
        experiment = simulate_hybrid(accelerator="phi", sockets=2,
                                     precision="double", n_slices=20)
        assert 1.8 < experiment.speedup < 3.0

    def test_dual_gpu(self):
        experiment = simulate_hybrid(accelerator="k80-dual", sockets=1,
                                     precision="double", distribution=0.75)
        assert experiment.speedup > 4.0

    def test_custom_workload(self):
        experiment = simulate_hybrid(accelerator="k80-half", batch=500, n=100)
        assert experiment.metrics.wall_time > 0
        assert experiment.baseline.wall_time > experiment.metrics.wall_time


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_analyze_command(self, capsys):
        assert main(["analyze", "2412", "--alpha", "4", "--panels", "120"]) == 0
        out = capsys.readouterr().out
        assert "cl" in out

    def test_analyze_inviscid(self, capsys):
        assert main(["analyze", "0012", "--reynolds", "0"]) == 0
        out = capsys.readouterr().out
        assert "cd" not in out

    def test_figure_with_artifacts(self, tmp_path, capsys):
        assert main(["figure1", "--artifacts", str(tmp_path)]) == 0
        assert (tmp_path / "figure1.svg").exists()

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
