"""Calibrated cost models for software paths and DP kernels.

The paper's evaluation hardware (EPYC hosts, BlueField-2 DPUs, NVMe
SSDs, 100 Gbps networks) is unavailable, so every performance number in
this reproduction comes from the cost tables below.  Each constant is
calibrated against a public reference; the paper's own Figures 1–3 pin
the most important ones:

* **Kernel block I/O** — Figure 2 reports ≈2.7 cores at 450 K 8 KB
  pages/s.  2.7 cores x 3 GHz / 450e3 = **18 000 cycles/page**, which is
  also consistent with Haas et al. (CIDR'20) for the Linux NVMe stack.
  io_uring is reported "similar"; SPDK-style userspace paths are
  roughly an order of magnitude cheaper.
* **Kernel TCP** — Figure 3 shows multi-core consumption approaching
  100 Gbps with 8 KB messages.  We charge a per-message cost (syscall,
  skb management) plus a per-byte cost (copies, checksums): 4 500 +
  1.1/byte, i.e. ≈13.5 K cycles per 8 KiB send — ≈7 host cores at
  100 Gbps, matching the figure's shape.
* **DEFLATE** — Figure 1 shows EPYC faster than Arm A72 and the BF-2
  compression ASIC an order of magnitude faster than both.  We encode
  20 cycles/byte on EPYC-class cores (≈150 MB/s at 3 GHz, a typical
  zlib-level-6 figure) and 55 cycles/byte on A72-class cores; the ASIC
  rates live in the per-DPU profiles (1.6 GB/s on BF-2).

All CPU costs are *cycles* so they scale with core frequency; all
accelerator costs are *bytes/second* plus a fixed job-setup latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "SoftwarePathCosts",
    "KernelCost",
    "CostModel",
    "DEFAULT_COSTS",
    "default_cost_model",
]


@dataclass(frozen=True)
class SoftwarePathCosts:
    """Per-operation CPU cycle costs of the software I/O paths."""

    # ---- storage paths (per 8 KiB page unless stated) ----
    #: Linux kernel block stack (syscall, VFS, block layer, NVMe driver).
    kernel_block_io_cycles_per_page: float = 18_000.0
    #: io_uring submission/completion path ("similar" per the paper).
    io_uring_cycles_per_page: float = 16_500.0
    #: SPDK-style userspace polled-mode driver.
    spdk_cycles_per_page: float = 2_200.0
    #: Host user-library cost to enqueue one file op to the DPU ring.
    file_frontend_cycles_per_op: float = 400.0
    #: DPU-side file-service cost per op (mapping lookup, SPDK submit).
    dpu_file_service_cycles_per_op: float = 2_600.0

    # ---- TCP paths ----
    #: Kernel TCP per-message overhead (syscall, skb alloc, timers).
    tcp_cycles_per_msg: float = 4_500.0
    #: Kernel TCP per-byte overhead (copy + checksum).
    tcp_cycles_per_byte: float = 1.1
    #: Host-side cost per message with the NE offloaded stack
    #: (lock-free ring write + amortized completion polling).
    offloaded_tcp_host_cycles_per_msg: float = 700.0
    #: Host per-byte cost with the offloaded stack (DMA-buffer copy).
    offloaded_tcp_host_cycles_per_byte: float = 0.15
    #: DPU-side per-message cost of the offloaded TCP stack.
    dpu_tcp_cycles_per_msg: float = 3_200.0
    #: DPU-side per-byte cost of the offloaded TCP stack.
    dpu_tcp_cycles_per_byte: float = 0.55

    # ---- RDMA paths ----
    #: Host cycles to issue one RDMA verb natively (QP lock, fences,
    #: doorbell MMIO stall) — cf. Cowbird's measurements.
    rdma_issue_cycles_per_op: float = 650.0
    #: Host cycles to poll one completion natively.
    rdma_poll_cycles_per_op: float = 150.0
    #: Host cycles to append a request to the NE lock-free ring.
    ring_write_cycles_per_op: float = 90.0
    #: Host cycles to consume one response from the NE ring.
    ring_read_cycles_per_op: float = 60.0
    #: DPU cycles to issue a verb on behalf of the host (poll + issue).
    dpu_rdma_issue_cycles_per_op: float = 900.0

    # ---- DMA / PCIe ----
    #: Cycles to program one DMA descriptor (either side).
    dma_descriptor_cycles: float = 200.0

    # ---- misc ----
    #: Per-request sproc dispatch overhead on a DPU core.
    sproc_dispatch_cycles: float = 1_500.0
    #: Per-request UDF parse cost in the SE offload engine.
    udf_parse_cycles: float = 800.0
    #: Added *latency* (not cycles) of interrupt-driven kernel paths:
    #: softirq wake-up on packet arrival plus blk-mq completion IRQ
    #: and context switch.  Polled userspace paths (SPDK/DPDK-style,
    #: i.e. everything the DPU runs) do not pay this — it is the
    #: latency component of Figure 8's "saved round trips".
    kernel_wakeup_latency_s: float = 10e-6


@dataclass(frozen=True)
class KernelCost:
    """Compute cost of one DP kernel on general-purpose cores.

    ASIC throughput is *not* here — it is a property of the specific
    accelerator instance (see :mod:`repro.hardware.profiles`) because
    it varies per DPU SKU; this record only names which accelerator
    kind can serve the kernel.
    """

    name: str
    #: cycles/byte on a host-class (EPYC) core.
    host_cycles_per_byte: float
    #: cycles/byte on a DPU-class (Arm A72) core.
    dpu_cycles_per_byte: float
    #: accelerator kind that can execute this kernel, if any.
    asic_kind: Optional[str] = None
    #: fixed per-invocation cycles on any CPU (call setup, buffers).
    base_cycles: float = 2_000.0


#: DP kernels shipped with the Compute Engine, with CPU cost models.
#: ASIC-side rates are in the DPU profiles.
DEFAULT_KERNEL_COSTS: Dict[str, KernelCost] = {
    kc.name: kc
    for kc in [
        # DEFLATE level-6-ish: 150 MB/s on a 3 GHz EPYC core,
        # 45 MB/s on a 2.5 GHz A72.
        KernelCost("compress", 20.0, 55.0, asic_kind="compression"),
        # INFLATE is ~3x cheaper than DEFLATE.
        KernelCost("decompress", 6.5, 18.0, asic_kind="compression"),
        # AES-128-CTR with AES-NI vs Arm crypto extensions.
        KernelCost("encrypt", 1.2, 2.8, asic_kind="encryption"),
        KernelCost("decrypt", 1.2, 2.8, asic_kind="encryption"),
        # Regex scan (DFA-style streaming match).
        KernelCost("regex", 10.0, 23.0, asic_kind="regex"),
        # Content-defined chunking + fingerprints.
        KernelCost("dedup", 6.0, 14.0, asic_kind="dedup"),
        # CRC32 (hardware CRC instructions on both).
        KernelCost("crc32", 0.375, 0.85, asic_kind=None),
        # Relational pushdown primitives: CPU-only kernels.
        KernelCost("filter", 2.0, 4.5, asic_kind=None,
                   base_cycles=3_000.0),
        KernelCost("aggregate", 1.6, 3.6, asic_kind=None,
                   base_cycles=3_000.0),
        KernelCost("project", 0.9, 2.0, asic_kind=None,
                   base_cycles=2_000.0),
    ]
}


@dataclass(frozen=True)
class CostModel:
    """The complete calibrated cost model used by a simulation."""

    software: SoftwarePathCosts = field(default_factory=SoftwarePathCosts)
    kernels: Dict[str, KernelCost] = field(
        default_factory=lambda: dict(DEFAULT_KERNEL_COSTS)
    )

    def kernel(self, name: str) -> KernelCost:
        """Look up a kernel cost record, raising KeyError if unknown."""
        return self.kernels[name]

    def cpu_cycles(self, kernel_name: str, nbytes: int,
                   cpu_class: str) -> float:
        """Cycles to run ``kernel_name`` over ``nbytes`` on a CPU class.

        ``cpu_class`` is ``"host"`` or ``"dpu"``.
        """
        kernel_cost = self.kernel(kernel_name)
        if cpu_class == "host":
            per_byte = kernel_cost.host_cycles_per_byte
        elif cpu_class == "dpu":
            per_byte = kernel_cost.dpu_cycles_per_byte
        else:
            raise ValueError(f"unknown cpu class {cpu_class!r}")
        return kernel_cost.base_cycles + per_byte * nbytes


#: The library-wide default cost model instance.
DEFAULT_COSTS = CostModel()


def default_cost_model() -> CostModel:
    """Return the default calibrated cost model."""
    return DEFAULT_COSTS
