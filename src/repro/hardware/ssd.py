"""NVMe SSD model.

Calibrated so that one device saturates around 430–460 K 8 KiB reads/s
— the range where the paper's Figure 2 sweep tops out:

* per-command access latency (flash read / program, FTL),
* a shared transfer stage whose bandwidth caps aggregate throughput
  (3.7 GB/s read => 8 KiB / 3.7 GB/s = 2.2 us/page => ~452 K pages/s),
* a bounded NVMe submission queue (``queue_depth`` in-flight commands).

Access latency overlaps across queued commands; only the transfer
stage serializes, like a real device's channel/bus contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Environment, Resource
from ..sim.stats import Counter
from ..units import GB, US

__all__ = ["SsdSpec", "Ssd"]


@dataclass(frozen=True)
class SsdSpec:
    """Static NVMe device parameters."""

    read_latency_s: float = 78 * US
    write_latency_s: float = 24 * US
    read_bandwidth_bps: float = 3.7 * GB * 8
    write_bandwidth_bps: float = 3.1 * GB * 8
    queue_depth: int = 128

    def __post_init__(self):
        if min(self.read_latency_s, self.write_latency_s) < 0:
            raise ValueError("latencies cannot be negative")
        if min(self.read_bandwidth_bps, self.write_bandwidth_bps) <= 0:
            raise ValueError("bandwidths must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue depth must be >= 1")


class Ssd:
    """A running NVMe device instance."""

    def __init__(self, env: Environment, spec: Optional[SsdSpec] = None,
                 name: str = "ssd"):
        self.env = env
        self.spec = spec or SsdSpec()
        self.name = name
        self._queue = Resource(env, capacity=self.spec.queue_depth,
                               name=f"{name}.sq")
        self._read_xfer = Resource(env, capacity=1, name=f"{name}.rchan")
        self._write_xfer = Resource(env, capacity=1, name=f"{name}.wchan")
        self.reads = Counter(f"{name}.reads")
        self.writes = Counter(f"{name}.writes")
        self.bytes_read = Counter(f"{name}.bytes_read")
        self.bytes_written = Counter(f"{name}.bytes_written")
        #: optional FaultInjector; sites ssd.<name>.read / ssd.<name>.write
        self.injector = None

    # -- device operations ---------------------------------------------------

    def read(self, nbytes: int):
        """Read ``nbytes`` (generator completing when data is in memory)."""
        yield from self._io(nbytes, is_write=False)

    def write(self, nbytes: int):
        """Write ``nbytes`` (generator completing at durability)."""
        yield from self._io(nbytes, is_write=True)

    def _io(self, nbytes: int, is_write: bool):
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes}")
        if self.injector is not None:
            site = f"ssd.{self.name}.{'write' if is_write else 'read'}"
            yield from self.injector.perturb(site)
        spec = self.spec
        if is_write:
            access, xfer, bandwidth = (
                spec.write_latency_s, self._write_xfer,
                spec.write_bandwidth_bps / 8.0,
            )
        else:
            access, xfer, bandwidth = (
                spec.read_latency_s, self._read_xfer,
                spec.read_bandwidth_bps / 8.0,
            )
        transfer = nbytes / bandwidth
        with self._queue.request() as slot:
            yield slot
            # Flash access overlaps across commands in the queue.
            yield self.env.timeout(access)
            # Channel transfer serializes; the throughput cap.
            yield from xfer.occupy(transfer)
        if is_write:
            self.writes.add(1)
            self.bytes_written.add(nbytes)
        else:
            self.reads.add(1)
            self.bytes_read.add(nbytes)

    def __repr__(self) -> str:
        return f"Ssd({self.name}, qd={self.spec.queue_depth})"
