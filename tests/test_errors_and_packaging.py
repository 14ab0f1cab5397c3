"""Tests for the exception hierarchy and package-level surface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import (
    CalibrationError,
    ExperimentError,
    GeometryError,
    HardwareModelError,
    LinalgError,
    OptimizationError,
    OverloadedError,
    PanelMethodError,
    ReproError,
    ScheduleError,
    ServeError,
    ViscousError,
)

ALL_ERRORS = (
    CalibrationError,
    ExperimentError,
    GeometryError,
    HardwareModelError,
    LinalgError,
    OptimizationError,
    OverloadedError,
    PanelMethodError,
    ScheduleError,
    ServeError,
    ViscousError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("error", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        assert issubclass(error, Exception)

    def test_catching_base_catches_all(self):
        for error in ALL_ERRORS:
            with pytest.raises(ReproError):
                raise error("boom")

    def test_errors_are_distinct(self):
        assert len(set(ALL_ERRORS)) == len(ALL_ERRORS)

    def test_overloaded_is_a_serve_error(self):
        assert issubclass(OverloadedError, ServeError)

    def test_library_raises_its_own_errors(self):
        from repro.geometry import naca

        with pytest.raises(ReproError):
            naca("99", 100)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_api_exports(self):
        for name in ("analyze", "optimize", "simulate_hybrid",
                     "AirfoilAnalysis", "HybridExperiment", "Precision"):
            assert hasattr(repro, name)
            assert name in repro.__all__

    @pytest.mark.parametrize("module", [
        "repro.geometry", "repro.linalg", "repro.panel", "repro.viscous",
        "repro.optimize", "repro.hardware", "repro.pipeline",
        "repro.experiments", "repro.validation", "repro.viz",
        "repro.serve", "repro.jobs",
    ])
    def test_subpackage_all_resolves(self, module):
        """Every name in __all__ is actually importable."""
        import importlib

        imported = importlib.import_module(module)
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name} missing"

    @pytest.mark.parametrize("module", [
        "repro.optimize.fitness", "repro.optimize", "repro.jobs",
        "repro.core.api", "repro.viscous", "repro.viscous.polar",
    ])
    def test_imports_first_without_a_cycle(self, module):
        """``core.api`` uses ``optimize.fitness`` and ``viscous``, and
        both call back into it; any of them may be the first module a
        fresh interpreter imports."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", f"import {module}"], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

    def test_report_command(self, capsys):
        """The CLI 'report' command emits the EXPERIMENTS.md preamble."""
        from repro.cli import main

        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# EXPERIMENTS")
        assert "Table 3" in out and "headline" in out.lower()


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")

#: Imports repro in a fresh interpreter, recording the value of
#: OPENBLAS_NUM_THREADS at the moment numpy is first imported.
PIN_PROBE = """
import json, os, sys

assert "numpy" not in sys.modules
seen = {}


class NumpyImportSpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and "numpy" not in seen:
            seen["numpy"] = os.environ.get("OPENBLAS_NUM_THREADS")
        return None


sys.meta_path.insert(0, NumpyImportSpy())
import repro  # noqa: E402,F401

print(json.dumps({
    "at_numpy_import": seen.get("numpy", "numpy never imported"),
    "env": {name: os.environ.get(name) for name in %r},
}))
""" % (BLAS_THREAD_VARIABLES,)


def _probe_blas_pin(**preset):
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARIABLES}
    env.update(preset)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", PIN_PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout)


class TestBlasPin:
    """``import repro`` pins BLAS to one thread before numpy loads.

    A multi-threaded OpenBLAS wakes its idle threads slowly, so a served
    solve after an idle gap would cost ~100x its warm time.
    """

    def test_import_pins_all_three_before_numpy(self):
        probe = _probe_blas_pin()
        assert probe["env"] == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")
        assert probe["at_numpy_import"] == "1"

    def test_preset_value_is_kept(self):
        probe = _probe_blas_pin(OPENBLAS_NUM_THREADS="3")
        assert probe["env"]["OPENBLAS_NUM_THREADS"] == "3"
        assert probe["at_numpy_import"] == "3"
        assert probe["env"]["OMP_NUM_THREADS"] == "1"
