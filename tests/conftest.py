"""Shared fixtures for the repro test suite."""

# First, so that repro's one-thread BLAS pin is set before numpy loads.
import repro  # noqa: F401

import numpy as np
import pytest

from repro.geometry import naca
from repro.panel import Freestream, PanelSolver


@pytest.fixture(scope="session")
def naca2412():
    """The paper's Figure 1 section at a moderate resolution."""
    return naca("2412", 160)


@pytest.fixture(scope="session")
def naca0012():
    """A symmetric reference section."""
    return naca("0012", 160)


@pytest.fixture(scope="session")
def solved_2412():
    """NACA 2412 solved at 4 degrees (double precision)."""
    return PanelSolver().solve(naca("2412", 160), Freestream.from_degrees(4.0))


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(20160704)
