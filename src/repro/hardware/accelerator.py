"""Hardware-accelerator (ASIC) models.

DPUs carry fixed-function ASICs — compression, encryption, regex,
deduplication — with vendor-specific characteristics the paper calls
out: *high throughput with high (setup) latency* and a small number of
concurrent job slots, with no virtualization support.

An :class:`Accelerator` therefore models:

* ``throughput_bps`` — streaming rate once a job is running,
* ``setup_latency_s`` — fixed per-job cost (descriptor DMA, engine
  wake-up), which makes small jobs comparatively expensive,
* ``channels`` — concurrent job slots (the "accelerator capacity"
  Section 5 says varies greatly across hardware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Environment, PriorityResource
from ..sim.stats import Counter

__all__ = ["AcceleratorSpec", "Accelerator"]

#: Accelerator kinds that appear across DPU SKUs.
KINDS = ("compression", "encryption", "regex", "dedup")


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static description of one ASIC on a DPU SKU."""

    kind: str
    throughput_bytes_per_s: float
    setup_latency_s: float = 30e-6
    channels: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown accelerator kind {self.kind!r}; known: {KINDS}"
            )
        if self.throughput_bytes_per_s <= 0:
            raise ValueError("throughput must be positive")
        if self.setup_latency_s < 0:
            raise ValueError("setup latency cannot be negative")
        if self.channels < 1:
            raise ValueError("need at least one channel")


class Accelerator:
    """A running instance of an ASIC inside a simulation."""

    def __init__(self, env: Environment, spec: AcceleratorSpec,
                 name: Optional[str] = None):
        self.env = env
        self.spec = spec
        self.kind = spec.kind
        self.name = name or f"asic.{spec.kind}"
        self._channels = PriorityResource(env, capacity=spec.channels,
                                          name=self.name)
        self.jobs = Counter(f"{self.name}.jobs")
        #: optional FaultInjector: the Compute Engine asks it whether
        #: site accel.<name> is down before placing a job here
        self.injector = None

    def service_time(self, nbytes: int) -> float:
        """Time one job of ``nbytes`` spends executing (no queueing)."""
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes}")
        return self.spec.setup_latency_s + nbytes / self.spec.throughput_bytes_per_s

    def run_job(self, nbytes: int, priority: int = 0):
        """Execute one job (generator): queue for a channel, then run.

        ``priority`` orders the channel queue (lower = more urgent) —
        the co-scheduling hook Section 5 asks for ("How to schedule DP
        kernels on the same accelerator?").
        """
        with self._channels.request(priority=priority) as req:
            yield req
            yield self.env.timeout(self.service_time(nbytes))
        self.jobs.add(1)

    @property
    def queue_length(self) -> int:
        return self._channels.queue_length

    def __repr__(self) -> str:
        return (
            f"Accelerator({self.name}: {self.spec.throughput_bytes_per_s / 1e9:.2f} "
            f"GB/s x {self.spec.channels}ch)"
        )
