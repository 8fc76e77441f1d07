"""Fault-simulator configuration (Table 4) and the Hopper distribution.

The paper drives FaultSim with the per-device fault-mode distribution
measured on the Hopper supercomputer (Sridharan et al., "Memory errors
in modern systems", ASPLOS 2015) and sweeps the total per-device FIT
from 1 to 80 to cover NVM reliability scenarios.  The relative weights
below approximate the published Hopper DDR-3 breakdown; the absolute
scale is set by ``fit_per_device``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory import DimmGeometry

HOURS_PER_YEAR = 24 * 365

#: Relative frequency of each fault mode (Hopper DDR-3, approximate).
HOPPER_RELATIVE_RATES = {
    "bit": 0.50,
    "word": 0.02,
    "column": 0.08,
    "row": 0.13,
    "bank": 0.19,
    "nbank": 0.03,
    "nrank": 0.05,
}


@dataclass(frozen=True)
class FaultSimConfig:
    """One FaultSim campaign (Table 4 defaults)."""

    geometry: DimmGeometry = field(default_factory=DimmGeometry)
    fit_per_device: float = 10.0
    relative_rates: dict = field(
        default_factory=lambda: dict(HOPPER_RELATIVE_RATES)
    )
    years: float = 5.0
    trials: int = 100_000
    repair: str = "chipkill"       # or "chipkill2", "secded", "none"
    seed: int = 2021

    def __post_init__(self):
        if self.fit_per_device <= 0:
            raise ValueError("fit_per_device must be positive")
        if self.years <= 0 or self.trials <= 0:
            raise ValueError("years and trials must be positive")
        total = sum(self.relative_rates.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"relative rates must sum to 1, got {total}")
        if self.repair not in ("chipkill", "chipkill2", "secded", "none"):
            raise ValueError(f"unknown repair mechanism {self.repair!r}")

    @property
    def hours(self) -> float:
        return self.years * HOURS_PER_YEAR

    def expected_faults_per_chip(self) -> float:
        return self.fit_per_device / 1e9 * self.hours

    def expected_faults_per_dimm(self) -> float:
        return self.expected_faults_per_chip() * self.geometry.chips


def mtbf_hours(
    fit_per_device: float,
    nodes: int = 20_000,
    dimms_per_node: int = 4,
    chips_per_dimm: int = 18,
) -> float:
    """System MTBF for a large cluster (Section 4 calibration).

    At 1 FIT/device a 20k-node system with 4 DIMMs/node and 18
    chips/DIMM has MTBF 1e9 / (1 * 20000*4*18) = 694.4 hours — exactly
    the paper's quoted range endpoint (694h at FIT 1, 8.7h at FIT 80).
    """
    if fit_per_device <= 0:
        raise ValueError("fit_per_device must be positive")
    total_devices = nodes * dimms_per_node * chips_per_dimm
    return 1e9 / (fit_per_device * total_devices)
