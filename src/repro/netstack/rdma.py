"""RDMA verbs over the simulated NIC substrate.

Models the properties the paper's Section 6 relies on:

* **one-sided** READ/WRITE execute entirely in the remote NIC — the
  remote CPU is never charged a cycle;
* **two-sided** SEND/RECV deliver to a receive queue the remote
  application drains (charging its poll cost);
* **issuing is CPU-costly on the initiator**: posting a verb charges
  ``rdma_issue_cycles_per_op`` (queue-pair lock, memory fences,
  doorbell MMIO) and reaping a completion charges
  ``rdma_poll_cycles_per_op`` — the overheads the Network Engine
  removes from the host by moving them to the DPU.

Wire behaviour: verbs ride the same :class:`~repro.hardware.nic.Wire`
as everything else, so serialization and propagation delays are
shared with TCP traffic.  RDMA assumes a lossless fabric (PFC), so no
retransmission machinery is modelled.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..buffers import Buffer, SynthBuffer, as_buffer
from ..errors import NetworkError
from ..hardware.costs import SoftwarePathCosts
from ..hardware.cpu import CpuCluster
from ..hardware.nic import Nic
from ..obs.trace import NULL_TRACER
from ..sim import Environment, Event, Store

__all__ = ["RdmaMemoryRegion", "RdmaNode", "RdmaQp", "connect_qp"]

_HEADER_BYTES = 58                 # eth + ip + ib/roce headers


class RdmaMemoryRegion:
    """A registered memory region addressable by remote NICs."""

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError("region size must be positive")
        self.name = name
        self.size = size
        self._contents: Dict[int, Buffer] = {}

    def write(self, offset: int, buffer: Buffer) -> None:
        """Store ``buffer`` at ``offset`` (bounds-checked)."""
        if offset < 0 or offset + buffer.size > self.size:
            raise NetworkError(
                f"write [{offset}, {offset + buffer.size}) outside "
                f"region {self.name!r} of {self.size} bytes"
            )
        self._contents[offset] = buffer

    def read(self, offset: int, size: int) -> Buffer:
        """Read ``size`` bytes at ``offset`` (bounds-checked)."""
        if offset < 0 or offset + size > self.size:
            raise NetworkError(
                f"read [{offset}, {offset + size}) outside region "
                f"{self.name!r} of {self.size} bytes"
            )
        stored = self._contents.get(offset)
        if stored is not None and stored.size == size:
            return stored
        return SynthBuffer(size, label=f"{self.name}@{offset}")


class RdmaQp:
    """One endpoint of a connected queue pair."""

    def __init__(self, node: "RdmaNode", qp_id: int):
        self.node = node
        self.env = node.env
        self.qp_id = qp_id
        self.peer: Optional["RdmaQp"] = None
        #: fabric address of the peer node (None on p2p wires)
        self.remote_address: Optional[str] = None
        #: receive queue for two-sided SENDs
        self.rq: Store = Store(self.env, name=f"qp{qp_id}.rq")
        self._pending: Dict[int, Event] = {}
        self._pending_spans: Dict[int, object] = {}

    # -- posting verbs (charges the initiator's CPU) -------------------------

    def post_write(self, region: str, offset: int, payload):
        """One-sided WRITE (generator -> completion event)."""
        buffer = as_buffer(payload)
        return (yield from self._post(
            "write", buffer.size + _HEADER_BYTES,
            {"region": region, "offset": offset, "buffer": buffer},
        ))

    def post_read(self, region: str, offset: int, size: int):
        """One-sided READ (generator -> completion event).

        The completion carries the remote buffer.
        """
        return (yield from self._post(
            "read", _HEADER_BYTES,
            {"region": region, "offset": offset, "size": size},
        ))

    def post_send(self, payload):
        """Two-sided SEND (generator -> completion event)."""
        buffer = as_buffer(payload)
        return (yield from self._post(
            "send", buffer.size + _HEADER_BYTES, {"buffer": buffer},
        ))

    def _post(self, op: str, wire_bytes: int, body: dict):
        if self.peer is None:
            raise NetworkError("queue pair is not connected")
        wr_id = self.env.next_id("rdma-wr")
        completion = self.env.event()
        self._pending[wr_id] = completion
        if self.node.tracer.enabled:
            self._pending_spans[wr_id] = self.node.tracer.begin(
                f"rdma.{op}", category="network", qp=self.qp_id,
                wr_id=wr_id, wire_bytes=wire_bytes,
            )
        frame = {
            "proto": "rdma", "op": op, "qp": self.peer.qp_id,
            "src_qp": self.qp_id, "wr_id": wr_id,
            "dst": self.remote_address,
            "src": self.node.nic.address,
            "posted_at": self.env.now, **body,
        }
        yield from self.node._charge_issue()
        yield from self.node.nic.transmit(frame, wire_bytes)
        return completion

    # -- completions ----------------------------------------------------------

    def post_recv(self):
        """Wait for the next two-sided SEND (generator; charges poll)."""
        message = yield self.rq.get()
        yield from self.node._charge_poll()
        return message

    # -- NIC-side handlers (no CPU anywhere) ------------------------------------

    def _complete(self, wr_id: int, op: str,
                  buffer: Optional[Buffer], posted_at: float) -> None:
        completion = self._pending.pop(wr_id, None)
        record = {"wr_id": wr_id, "op": op, "buffer": buffer}
        span = self._pending_spans.pop(wr_id, None)
        if span is not None:
            span.annotate(latency_s=self.env.now - posted_at)
            span.finish()
        if completion is not None and not completion.triggered:
            completion.succeed(record)


class RdmaNode:
    """The RDMA stack instance at one server (one per NIC)."""

    def __init__(self, env: Environment, nic: Nic, rx_queue: Store,
                 cpu: CpuCluster, costs: SoftwarePathCosts,
                 name: str = "rdma",
                 issue_cycles: Optional[float] = None,
                 poll_cycles: Optional[float] = None,
                 tracer=None):
        self.env = env
        self.nic = nic
        self.cpu = cpu
        self.costs = costs
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._issue_cycles = (
            costs.rdma_issue_cycles_per_op
            if issue_cycles is None else issue_cycles
        )
        self._poll_cycles = (
            costs.rdma_poll_cycles_per_op
            if poll_cycles is None else poll_cycles
        )
        self.regions: Dict[str, RdmaMemoryRegion] = {}
        self.qps: Dict[int, RdmaQp] = {}
        env.process(self._nic_loop(rx_queue), name=f"{name}-nic")

    # -- setup -----------------------------------------------------------------

    def register_region(self, name: str, size: int) -> RdmaMemoryRegion:
        """Register a memory region for remote access."""
        if name in self.regions:
            raise NetworkError(f"region {name!r} already registered")
        region = RdmaMemoryRegion(name, size)
        self.regions[name] = region
        return region

    def create_qp(self) -> RdmaQp:
        """Create an unconnected queue pair on this node."""
        qp = RdmaQp(self, self.env.next_id("rdma-qp"))
        self.qps[qp.qp_id] = qp
        return qp

    # -- cost hooks (overridden by the NE's offloaded issuing) ------------------

    def _charge_issue(self):
        yield from self.cpu.execute(self._issue_cycles)

    def _charge_poll(self):
        yield from self.cpu.execute(self._poll_cycles)

    # -- NIC-hardware processing: zero CPU cycles --------------------------------

    def _nic_loop(self, rx_queue: Store):
        def mine(frame):
            # A real NIC demuxes by QP number; several RdmaNodes may
            # share one ingress queue (e.g. the NE's node and a host
            # node), so only claim frames addressed to our QPs.
            return (frame.get("proto") == "rdma"
                    and frame.get("qp") in self.qps)

        while True:
            frame = yield rx_queue.get(mine)
            op = frame["op"]
            if op == "write":
                self._handle_write(frame)
            elif op == "read":
                self._handle_read(frame)
            elif op == "send":
                self._handle_send(frame)
            elif op == "ack":
                self._handle_ack(frame)
            elif op == "read_resp":
                self._handle_read_resp(frame)

    def _handle_write(self, frame: dict) -> None:
        region = self.regions.get(frame["region"])
        if region is not None:
            region.write(frame["offset"], frame["buffer"])
        self._reply(frame, {"op": "ack"}, _HEADER_BYTES)

    def _handle_read(self, frame: dict) -> None:
        region = self.regions.get(frame["region"])
        buffer = (
            region.read(frame["offset"], frame["size"])
            if region is not None
            else SynthBuffer(frame["size"], label="unregistered")
        )
        self._reply(frame, {"op": "read_resp", "buffer": buffer},
                    buffer.size + _HEADER_BYTES)

    def _handle_send(self, frame: dict) -> None:
        qp = self.qps.get(frame["qp"])
        if qp is not None:
            qp.rq.put({"buffer": frame["buffer"],
                       "src_qp": frame["src_qp"]})
        self._reply(frame, {"op": "ack"}, _HEADER_BYTES)

    def _handle_ack(self, frame: dict) -> None:
        qp = self.qps.get(frame["qp"])
        if qp is not None:
            qp._complete(frame["wr_id"], frame["orig_op"], None,
                         frame["posted_at"])

    def _handle_read_resp(self, frame: dict) -> None:
        qp = self.qps.get(frame["qp"])
        if qp is not None:
            qp._complete(frame["wr_id"], "read", frame["buffer"],
                         frame["posted_at"])

    def _reply(self, request: dict, overrides: dict,
               wire_bytes: int) -> None:
        response = {
            "proto": "rdma", "qp": request["src_qp"],
            "src_qp": request["qp"], "wr_id": request["wr_id"],
            "dst": request.get("src"), "src": self.nic.address,
            "posted_at": request["posted_at"],
            "orig_op": request["op"], **overrides,
        }
        self.env.process(self._transmit(response, wire_bytes))

    def _transmit(self, frame: dict, wire_bytes: int):
        yield from self.nic.transmit(frame, wire_bytes)


def connect_qp(node_a: RdmaNode, node_b: RdmaNode) -> Tuple[RdmaQp, RdmaQp]:
    """Create and connect a queue pair between two nodes."""
    qp_a = node_a.create_qp()
    qp_b = node_b.create_qp()
    qp_a.peer = qp_b
    qp_b.peer = qp_a
    qp_a.remote_address = node_b.nic.address
    qp_b.remote_address = node_a.nic.address
    return qp_a, qp_b
