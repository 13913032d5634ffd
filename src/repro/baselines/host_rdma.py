"""Native host RDMA issuing baseline (Figure 7 left side).

A thin assembly: an :class:`~repro.netstack.rdma.RdmaNode` whose
issue/poll costs land on *host* cores at the native rates (QP locks,
fences, doorbell MMIO).  The NE comparison shows the same verbs issued
from the DPU with the host paying only ring writes.
"""

from __future__ import annotations

from ..hardware.server import Server
from ..netstack.rdma import RdmaNode

__all__ = ["make_host_rdma_node"]


def make_host_rdma_node(server: Server,
                        name: str = "host-rdma") -> RdmaNode:
    """An RDMA node issuing verbs natively from the host, fed by the
    NIC's host ingress queue."""
    return RdmaNode(
        server.env, server.nic, server.nic.rx_host, server.host_cpu,
        server.costs.software, name=name,
    )
