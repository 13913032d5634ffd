"""CPU-only compute baseline (Figure 1's EPYC and Arm lines).

Runs a DP-kernel-equivalent job on a host CPU cluster: the cycle cost
comes from the same calibrated kernel table the Compute Engine uses,
so the comparison against the DPU ASIC path is apples to apples.
"""

from __future__ import annotations

from ..buffers import as_buffer
from ..core.kernels import BUILTIN_KERNELS
from ..hardware.costs import default_cost_model
from ..hardware.cpu import CpuCluster

__all__ = ["HostComputeBaseline"]


class HostComputeBaseline:
    """Executes kernels on plain CPU cores (no DPU anywhere)."""

    def __init__(self, cpu: CpuCluster):
        self.cpu = cpu
        self.costs = default_cost_model()

    def run_kernel(self, kernel_name: str, payload):
        """Run one kernel job on one core (generator -> KernelResult)."""
        spec = BUILTIN_KERNELS[kernel_name]
        buffer = as_buffer(payload)
        cycles = self.costs.cpu_cycles(
            kernel_name, buffer.size, self.cpu.cpu_class
        )
        yield from self.cpu.execute(cycles)
        return spec.run(buffer, {})
