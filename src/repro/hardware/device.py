"""Simulated devices: calibrated timing plus functional execution.

A :class:`SimulatedDevice` predicts how long a kernel takes (via the
calibrated :class:`~repro.hardware.kernels.KernelModel`) and can also
*functionally execute* the kernel with the library's real NumPy
implementations.  The pipeline simulator advances a virtual clock with
the predicted times while — in functional mode — producing bit-real
vortex strengths, so end-to-end integration tests exercise the same
code path the paper's hybrid implementation does.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.airfoil import Airfoil
from repro.hardware.kernels import KernelCost, KernelModel
from repro.hardware.specs import DeviceSpec
from repro.panel.assembly import Closure, assemble_batch
from repro.panel.freestream import Freestream
from repro.panel.solution import PanelSolution
from repro.panel.solver import solve_stack
from repro.precision import Precision


@dataclasses.dataclass(frozen=True)
class AssemblyOutput:
    """Result of a (possibly functional) assembly kernel."""

    cost: KernelCost
    matrices: Optional[np.ndarray] = None
    rhs: Optional[np.ndarray] = None
    systems: Optional[list] = None


@dataclasses.dataclass(frozen=True)
class SolveOutput:
    """Result of a (possibly functional) batched solve kernel."""

    cost: KernelCost
    solutions: Optional[List[PanelSolution]] = None


@dataclasses.dataclass(frozen=True)
class SimulatedDevice:
    """One device of the paper's workstation, ready to run kernels."""

    spec: DeviceSpec
    precision: Precision
    model: KernelModel

    @classmethod
    def create(cls, spec: DeviceSpec, precision) -> "SimulatedDevice":
        """Build a device with its calibrated kernel model."""
        precision = Precision.parse(precision)
        return cls(spec=spec, precision=precision,
                   model=KernelModel.for_device(spec, precision))

    @property
    def name(self) -> str:
        """Device display name."""
        return self.spec.name

    # ------------------------------------------------------------------
    # Timing-only interface (what the pipeline schedules use)
    # ------------------------------------------------------------------

    def assembly_seconds(self, batch: int, n: int) -> float:
        """Predicted seconds for one assembly call."""
        return self.model.assembly(batch, n).seconds

    def solve_seconds(self, batch: int, n: int, *,
                      throughput_fraction: float = 1.0) -> float:
        """Predicted seconds for one batched solve call."""
        return self.model.solve(
            batch, n, throughput_fraction=throughput_fraction
        ).seconds

    def transfer_seconds(self, batch: int, n: int) -> float:
        """Predicted seconds to ship a batch of systems to the host."""
        return self.model.transfer(batch, n).seconds

    # ------------------------------------------------------------------
    # Functional interface (timing + real numerics)
    # ------------------------------------------------------------------

    def run_assembly(self, airfoils: Sequence[Airfoil], freestream: Freestream,
                     *, closure=Closure.KUTTA) -> AssemblyOutput:
        """Assemble real systems and report the simulated cost."""
        matrices, rhs, systems = assemble_batch(
            airfoils, freestream, closure=closure, dtype=self.precision.dtype
        )
        n = matrices.shape[1]
        cost = self.model.assembly(len(airfoils), n)
        return AssemblyOutput(cost=cost, matrices=matrices, rhs=rhs, systems=systems)

    def run_solve(self, assembly: AssemblyOutput) -> SolveOutput:
        """Solve previously assembled systems; report the simulated cost."""
        matrices, rhs = assembly.matrices, assembly.rhs
        if matrices is None or rhs is None or assembly.systems is None:
            raise ValueError("run_solve needs a functional AssemblyOutput")
        solutions = solve_stack(matrices, rhs, assembly.systems)
        n = matrices.shape[1]
        cost = self.model.solve(len(solutions), n)
        return SolveOutput(cost=cost, solutions=solutions)
