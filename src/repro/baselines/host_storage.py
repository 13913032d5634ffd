"""Host storage-path baselines (Figure 2's measurement targets).

Three software paths over the same simulated SSD:

* ``"kernel"`` — the Linux block stack: ~18 K host cycles per 8 KiB
  page (calibrated from the paper's 2.7 cores @ 450 K pages/s),
* ``"io_uring"`` — slightly cheaper, "similar" per the paper,
* ``"spdk_host"`` — a host-resident userspace driver, the cheap end of
  the spectrum (what the DPU file service uses, but burning *host*
  cores instead of Arm cores).
"""

from __future__ import annotations

from ..hardware.costs import SoftwarePathCosts
from ..hardware.cpu import CpuCluster
from ..hardware.ssd import Ssd
from ..sim.stats import Tally
from ..units import PAGE_SIZE

__all__ = ["HostStoragePath", "STORAGE_PATHS"]

STORAGE_PATHS = ("kernel", "io_uring", "spdk_host")


class HostStoragePath:
    """Page I/O through one of the host software paths."""

    def __init__(self, cpu: CpuCluster, ssd: Ssd,
                 costs: SoftwarePathCosts, path: str = "kernel"):
        if path not in STORAGE_PATHS:
            raise ValueError(
                f"unknown path {path!r}; choose from {STORAGE_PATHS}"
            )
        self.cpu = cpu
        self.ssd = ssd
        self.path = path
        if path == "kernel":
            self._cycles_per_page = costs.kernel_block_io_cycles_per_page
            self._wakeup_latency_s = costs.kernel_wakeup_latency_s
        elif path == "io_uring":
            self._cycles_per_page = costs.io_uring_cycles_per_page
            self._wakeup_latency_s = costs.kernel_wakeup_latency_s
        else:
            self._cycles_per_page = costs.spdk_cycles_per_page
            self._wakeup_latency_s = 0.0     # polled-mode driver
        self.latency = Tally("host-storage.latency")

    def read_page(self, nbytes: int = PAGE_SIZE):
        """One page read: software-path cycles + device time."""
        started = self.cpu.env.now
        pages = max(1, nbytes // PAGE_SIZE)
        yield from self.cpu.execute(self._cycles_per_page * pages)
        yield from self.ssd.read(nbytes)
        if self._wakeup_latency_s:
            # Completion interrupt + context switch back to the caller.
            yield self.cpu.env.timeout(self._wakeup_latency_s)
        self.latency.observe(self.cpu.env.now - started)
