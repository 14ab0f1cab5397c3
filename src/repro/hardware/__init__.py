"""Simulated hardware substrate.

The paper's accelerators are a hardware dependency this reproduction
cannot run on; per the substitution strategy in DESIGN.md they are
replaced by calibrated device models.  Table 1 provides the peak
characteristics; Table 2 anchors each device's assembly and batched-LU
throughput; the PCIe link model is back-solved from the paper's slice-1
overhead rows.
"""

from repro.hardware.calibration import (
    PAPER_TABLE2,
    REFERENCE_BATCH,
    REFERENCE_N,
    KernelAnchor,
    KernelCalibration,
    calibrate,
    implied_efficiencies,
)
from repro.hardware.device import AssemblyOutput, SimulatedDevice, SolveOutput
from repro.hardware.host import (
    ACCELERATOR_CHOICES,
    Workstation,
    cpu_spec,
    custom_workstation,
    paper_workstation,
)
from repro.hardware.energy import (
    DEVICE_TDP_W,
    EnergyEstimate,
    configuration_energy,
    device_power,
    estimate_energy,
)
from repro.hardware.kernels import KernelCost, KernelModel
from repro.hardware.roofline import (
    Regime,
    RooflinePoint,
    assembly_intensity,
    roofline_point,
    solve_intensity,
)
from repro.hardware.specs import (
    DUAL_E5_2630_V3,
    E5_2630_V3,
    FULL_K80,
    HALF_K80,
    TABLE1_DEVICES,
    XEON_PHI_7120,
    DeviceKind,
    DeviceSpec,
    PCIeLinkSpec,
)

__all__ = [
    "ACCELERATOR_CHOICES",
    "AssemblyOutput",
    "DEVICE_TDP_W",
    "EnergyEstimate",
    "configuration_energy",
    "device_power",
    "estimate_energy",
    "Regime",
    "RooflinePoint",
    "assembly_intensity",
    "roofline_point",
    "solve_intensity",
    "DUAL_E5_2630_V3",
    "DeviceKind",
    "DeviceSpec",
    "E5_2630_V3",
    "FULL_K80",
    "HALF_K80",
    "KernelAnchor",
    "KernelCalibration",
    "KernelCost",
    "KernelModel",
    "PAPER_TABLE2",
    "PCIeLinkSpec",
    "REFERENCE_BATCH",
    "REFERENCE_N",
    "SimulatedDevice",
    "SolveOutput",
    "TABLE1_DEVICES",
    "Workstation",
    "XEON_PHI_7120",
    "calibrate",
    "cpu_spec",
    "custom_workstation",
    "implied_efficiencies",
    "paper_workstation",
]
