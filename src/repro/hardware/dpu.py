"""DPU SoC assembly.

A :class:`Dpu` instantiates the live devices described by a
:class:`~repro.hardware.profiles.DpuProfile`: the Arm CPU cluster,
onboard memory, the ASIC accelerators that exist on that SKU, the NIC,
and the PCIe link plus DMA engine toward the host.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Environment
from .accelerator import Accelerator
from .cpu import CpuCluster
from .memory import MemoryRegion
from .nic import Nic
from .pcie import DmaEngine, PcieLink
from .profiles import DpuProfile

__all__ = ["Dpu"]


class Dpu:
    """A running DPU instance inside a simulation."""

    def __init__(self, env: Environment, profile: DpuProfile,
                 name: Optional[str] = None):
        self.env = env
        self.profile = profile
        self.name = name or profile.name
        self.cpu = CpuCluster(
            env, profile.arm_cores, profile.arm_frequency_hz,
            name=f"{self.name}.cpu", cpu_class="dpu",
        )
        self.memory = MemoryRegion(
            env, profile.memory_bytes, name=f"{self.name}.mem"
        )
        self.nic = Nic(
            env, profile.nic_bandwidth_bps, name=f"{self.name}.nic"
        )
        self.pcie = PcieLink(
            env, profile.pcie_bandwidth_bps, name=f"{self.name}.pcie"
        )
        self.dma = DmaEngine(env, self.pcie, name=f"{self.name}.dma")
        self.accelerators: Dict[str, Accelerator] = {
            spec.kind: Accelerator(env, spec,
                                   name=f"{self.name}.{spec.kind}")
            for spec in profile.accelerators
        }

    def accelerator(self, kind: str) -> Optional[Accelerator]:
        """The live accelerator of ``kind``, or None if this SKU lacks it."""
        return self.accelerators.get(kind)

    def __repr__(self) -> str:
        asics = ", ".join(sorted(self.accelerators)) or "none"
        return (
            f"Dpu({self.name}: {self.profile.arm_cores} cores, "
            f"asics=[{asics}])"
        )
