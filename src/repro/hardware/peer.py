"""PCIe peer accelerators: GPUs and FPGAs (paper Section 5, last
open challenge).

"DPDPU CE can be further augmented when additional common data center
accelerators such as FPGAs and GPUs are connected via PCIe … it makes
sense to fuse multiple DP kernels inside the accelerator to minimize
execution latency."

A :class:`PeerAccelerator` is a device on the server's PCIe fabric
reachable from the DPU via peer-to-peer: it executes a declared set of
DP kernels at per-kernel streaming rates, with a comparatively large
per-job launch latency (kernel launch / FPGA invocation) and many
concurrent channels.  The launch latency is exactly what kernel
*fusion* amortizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..sim import Environment, Resource
from ..sim.stats import Counter
from ..units import GB

__all__ = ["PeerAcceleratorSpec", "PeerAccelerator", "GPU_SPEC",
           "FPGA_SPEC"]


@dataclass(frozen=True)
class PeerAcceleratorSpec:
    """Static description of a PCIe peer device."""

    kind: str                         # "gpu" or "fpga"
    name: str
    #: kernel name -> streaming rate (bytes/s) on this device.
    kernel_rates: Tuple[Tuple[str, float], ...]
    launch_latency_s: float = 12e-6
    channels: int = 8

    def __post_init__(self):
        if self.kind not in ("gpu", "fpga"):
            raise ValueError(f"unknown peer kind {self.kind!r}")
        if self.launch_latency_s < 0 or self.channels < 1:
            raise ValueError("invalid peer accelerator parameters")
        for kernel_name, rate in self.kernel_rates:
            if rate <= 0:
                raise ValueError(
                    f"non-positive rate for kernel {kernel_name!r}"
                )

    def rate_for(self, kernel_name: str) -> Optional[float]:
        """Streaming rate for a kernel, or None if unsupported."""
        for name, rate in self.kernel_rates:
            if name == kernel_name:
                return rate
        return None

    def supports(self, kernel_name: str) -> bool:
        """Whether this device implements the kernel."""
        return self.rate_for(kernel_name) is not None


#: A data-center GPU (A100-class rates for data-path kernels).
GPU_SPEC = PeerAcceleratorSpec(
    kind="gpu",
    name="gpu",
    kernel_rates=(
        ("compress", 12.0 * GB),
        ("decompress", 30.0 * GB),
        ("encrypt", 40.0 * GB),
        ("decrypt", 40.0 * GB),
        ("filter", 50.0 * GB),
        ("aggregate", 60.0 * GB),
        ("project", 60.0 * GB),
        ("regex", 10.0 * GB),
        ("crc32", 80.0 * GB),
    ),
    launch_latency_s=12e-6,
    channels=8,
)

#: A mid-size FPGA card (lower rates, lower launch latency).
FPGA_SPEC = PeerAcceleratorSpec(
    kind="fpga",
    name="fpga",
    kernel_rates=(
        ("compress", 6.0 * GB),
        ("decompress", 12.0 * GB),
        ("encrypt", 20.0 * GB),
        ("decrypt", 20.0 * GB),
        ("regex", 8.0 * GB),
        ("dedup", 8.0 * GB),
        ("crc32", 40.0 * GB),
    ),
    launch_latency_s=5e-6,
    channels=4,
)


class PeerAccelerator:
    """A running PCIe peer device instance."""

    def __init__(self, env: Environment, spec: PeerAcceleratorSpec,
                 name: Optional[str] = None):
        self.env = env
        self.spec = spec
        self.kind = spec.kind
        self.name = name or spec.name
        self._channels = Resource(env, capacity=spec.channels,
                                  name=self.name)
        self.jobs = Counter(f"{self.name}.jobs")

    def supports(self, kernel_name: str) -> bool:
        """Whether this device implements the kernel."""
        return self.spec.supports(kernel_name)

    def chain_service_time(self, stages) -> float:
        """Execution time for a fused chain of ``(kernel, nbytes)``.

        One launch covers the whole chain; each stage streams its own
        input size at its own rate.  Unsupported kernels raise
        ``KeyError``.
        """
        total = self.spec.launch_latency_s
        for kernel_name, nbytes in stages:
            rate = self.spec.rate_for(kernel_name)
            if rate is None:
                raise KeyError(
                    f"{self.name} does not implement {kernel_name!r}"
                )
            total += nbytes / rate
        return total

    def run_job(self, kernel_name: str, nbytes: int):
        """Execute one kernel job (generator)."""
        yield from self.run_chain([(kernel_name, nbytes)])

    def run_chain(self, stages):
        """Execute a fused chain of ``(kernel, nbytes)`` (generator)."""
        with self._channels.request() as request:
            yield request
            yield self.env.timeout(self.chain_service_time(stages))
        self.jobs.add(1)

    def __repr__(self) -> str:
        return f"PeerAccelerator({self.name}, kind={self.kind})"
