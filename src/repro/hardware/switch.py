"""A top-of-rack switch connecting several servers.

The paper's experiments are single-link, but its motivating scenarios
(disaggregated data centers, shuffle, DFI flows) are multi-node.  NICs
plug into a :class:`Switch` as they do into a
:class:`~repro.hardware.nic.Wire`: frames carry a ``dst`` address (one
without, or with an unknown one, is dropped and counted), and each
output port serializes deliveries at the port rate (output-queued
switch model).

Output queues honour a two-class QoS scheme: frames whose TCP port is
registered via :meth:`Switch.prioritize_port` are granted the output
serializer ahead of best-effort traffic (datacenter control-plane
DSCP marking, keyed on L4 port).  Without registered ports every frame
shares one class and the queues degrade to plain FIFO.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from ..errors import NetworkError
from ..sim import Environment
from ..sim.resources import PriorityResource
from ..sim.stats import Counter
from ..units import Gbps
from .nic import Nic

__all__ = ["Switch"]

#: QoS classes for the output-port serializer (lower = more urgent)
_CLASS_CONTROL = 0
_CLASS_BULK = 1


class Switch:
    """An output-queued switch with per-port serialization."""

    #: a frame's arrival depends on the output port's queue, so the
    #: switch cannot schedule deliveries ahead as a ``Wire.carry_at``
    #: does; NICs fall back to one ``carry`` per frame
    carry_at = None

    def __init__(self, env: Environment,
                 port_bandwidth_bps: float = 100 * Gbps,
                 forwarding_latency_s: float = 1e-6,
                 name: str = "switch"):
        if port_bandwidth_bps <= 0:
            raise ValueError("port bandwidth must be positive")
        self.env = env
        self.port_bytes_per_s = port_bandwidth_bps / 8.0
        self.forwarding_latency_s = forwarding_latency_s
        self.name = name
        self._ports: Dict[str, Nic] = {}
        self._output_queues: Dict[str, PriorityResource] = {}
        self._priority_ports: Set[int] = set()
        self.frames_forwarded = Counter(f"{name}.frames")
        self.frames_dropped = Counter(f"{name}.drops")

    def prioritize_port(self, port: int) -> None:
        """Serve frames for this TCP port ahead of best-effort traffic.

        A saturated output port queues migration round trips behind
        the very data backlog the migration is meant to relieve;
        marking the control-plane port keeps rebalancing responsive
        exactly when it matters.  Applies in both directions because
        every frame of a connection carries the service port.
        """
        self._priority_ports.add(port)

    def attach(self, nic: Nic, address: str) -> None:
        """Plug a NIC into the switch under ``address``."""
        if address in self._ports:
            raise NetworkError(f"address {address!r} already attached")
        self._ports[address] = nic
        self._output_queues[address] = PriorityResource(
            self.env, capacity=1, name=f"{self.name}.port.{address}"
        )
        nic.wire = self
        nic.address = address

    def carry(self, sender: Nic, frame: Any, nbytes: int) -> None:
        """Route a frame to its destination port."""
        dst = frame.get("dst") if isinstance(frame, dict) else None
        receiver = self._ports.get(dst)
        if receiver is None:
            self.frames_dropped.add(1)
            return
        self.env.process(self._forward(dst, receiver, frame, nbytes),
                         name=f"{self.name}-fwd")

    def _forward(self, dst: str, receiver: Nic, frame: Any,
                 nbytes: int):
        qos = _CLASS_BULK
        if (self._priority_ports and isinstance(frame, dict)
                and frame.get("port") in self._priority_ports):
            qos = _CLASS_CONTROL
        with self._output_queues[dst].request(priority=qos) as request:
            yield request
            yield self.env.timeout(
                self.forwarding_latency_s
                + nbytes / self.port_bytes_per_s
            )
        self.frames_forwarded.add(1)
        receiver.deliver(frame, nbytes)
