"""PCIe fabric and DMA engine models.

The DPU reaches host memory and peer devices (SSDs, GPUs) through a
PCIe switch.  Two models live here:

* :class:`PcieLink` — a bidirectional link with per-transfer latency
  and a serialization bandwidth shared by all transfers in the same
  direction (modelled with one queue per direction).
* :class:`DmaEngine` — the DPU's DMA block: a handful of channels that
  move bytes across a :class:`PcieLink` asynchronously, which is how
  the NE/SE lazily pull request descriptors and payloads from host
  ring buffers without host CPU involvement.
"""

from __future__ import annotations

from ..sim import Environment, Resource
from ..sim.stats import Counter

__all__ = ["PcieLink", "DmaEngine"]

#: a link's per-transfer latency
PCIE_LATENCY_S = 600e-9

#: the DMA block's channels and per-copy descriptor setup
DMA_CHANNELS = 4
DMA_SETUP_LATENCY_S = 0.8e-6


class PcieLink:
    """A PCIe point-to-point link (e.g. DPU <-> host root complex)."""

    def __init__(self, env: Environment, bandwidth_bps: float,
                 name: str = "pcie"):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth_bytes_per_s = bandwidth_bps / 8.0
        self.latency_s = PCIE_LATENCY_S
        self.name = name
        # Independent serialization queues per direction (full duplex).
        self._tx = Resource(env, capacity=1, name=f"{name}.tx")
        self._rx = Resource(env, capacity=1, name=f"{name}.rx")
        self.bytes_moved = Counter(f"{name}.bytes")

    def _pipe(self, direction: str) -> Resource:
        if direction == "to_host":
            return self._tx
        if direction == "to_device":
            return self._rx
        raise ValueError(f"unknown direction {direction!r}")

    def transfer_time(self, nbytes: int) -> float:
        """Serialization time for ``nbytes`` (excludes latency/queueing)."""
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes}")
        return nbytes / self.bandwidth_bytes_per_s

    def transfer(self, nbytes: int, direction: str = "to_host"):
        """Move ``nbytes`` across the link (generator).

        Total time = queueing + propagation latency + serialization.
        """
        yield from self._pipe(direction).occupy(
            self.latency_s + self.transfer_time(nbytes))
        self.bytes_moved.add(nbytes)


class DmaEngine:
    """The DPU's asynchronous DMA block.

    ``copy()`` moves a payload over the attached link using one of the
    engine's channels; no CPU cycles are charged to either side beyond
    the descriptor programming the *caller* accounts separately.  This
    is the mechanism that lets the DPU poll host ring buffers "lazily"
    (Sections 6 and 7).
    """

    def __init__(self, env: Environment, link: PcieLink,
                 name: str = "dma"):
        self.env = env
        self.link = link
        self.setup_latency_s = DMA_SETUP_LATENCY_S
        self.name = name
        self._channels = Resource(env, capacity=DMA_CHANNELS, name=name)

    def copy(self, nbytes: int, direction: str = "to_device"):
        """DMA ``nbytes`` across the link (generator).

        Hot path: with a free channel and an idle pipe, the setup
        latency, link latency, and serialization collapse into one
        timeout — the channel hold *is* the wake-up, and the pipe is
        reserved eventlessly for the serialization interval (shifted
        earlier by the sub-microsecond setup time; same busy total).
        """
        link = self.link
        pipe = link._pipe(direction)
        link_time = link.latency_s + link.transfer_time(nbytes)
        total = self.setup_latency_s + link_time
        hold = self._channels.hold(total)
        if hold is not None:
            if pipe.reserve(link_time):
                yield hold
                link.bytes_moved.add(nbytes)
                return
            self._channels.unhold(hold)
        with self._channels.request() as req:
            yield req
            yield self.env.timeout(self.setup_latency_s)
            yield from link.transfer(nbytes, direction)
