"""repro: two-dimensional panel codes with simulated hybrid acceleration.

A full reproduction of Einkemmer, "Evaluation of the Intel Xeon Phi and
NVIDIA K80 as accelerators for two-dimensional panel codes": a vortex
panel method with viscous correction and genetic shape optimization,
plus calibrated device models and a discrete-event pipeline simulator
that regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import analyze, simulate_hybrid

    print(analyze("2412", alpha_degrees=4.0).summary())
    experiment = simulate_hybrid(accelerator="k80-half", sockets=2)
    print(f"speedup: {experiment.speedup:.2f}x")

Subpackages
-----------
``repro.geometry``
    Airfoils, NACA generators, B-splines.
``repro.linalg``
    Batched LAPACK solves, with a from-scratch batched LU as their oracle.
``repro.panel``
    The vortex panel method (the paper's inner solver).
``repro.viscous``
    Thwaites/Michel/Head boundary layers and Squire–Young drag.
``repro.optimize``
    The genetic airfoil optimizer.
``repro.hardware``
    Calibrated device models (Tables 1-2).
``repro.pipeline``
    The hybrid interleaving schedules and event simulator (Figures 3-4,
    Tables 3-5).
``repro.experiments``
    One-call regeneration of every table and figure.
``repro.validation``
    Analytic references (cylinder, Joukowski, thin-airfoil theory).

Importing ``repro`` pins BLAS to one thread (unless the environment
already says otherwise) before numpy is loaded: a multi-threaded
OpenBLAS wakes its sleeping threads so slowly that a 201 x 201 solve
after an idle gap costs ~125 ms instead of ~0.5 ms.  The pin only takes
effect when ``repro`` is imported before numpy.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
del _variable

from repro.core.api import (  # noqa: E402 - after the BLAS pin
    AirfoilAnalysis,
    HybridExperiment,
    analyze,
    optimize,
    simulate_hybrid,
)
from repro.errors import ReproError  # noqa: E402
from repro.precision import Precision  # noqa: E402

__version__ = "1.0.0"

__all__ = [
    "AirfoilAnalysis",
    "HybridExperiment",
    "Precision",
    "ReproError",
    "__version__",
    "analyze",
    "optimize",
    "simulate_hybrid",
]
