"""Server assembly: a host machine, optionally with a DPU, plus SSDs.

:func:`make_server` is the main entry point used by examples, tests,
and benchmarks.  Two relevant shapes:

* ``make_server(env, dpu_profile=BLUEFIELD2)`` — the paper's target: a
  host whose NIC *is* the DPU, with SSDs reachable from both the host
  (via the OS storage stack) and the DPU (via PCIe peer-to-peer).
* ``make_server(env, dpu_profile=None)`` — a conventional server used
  by the baselines; it gets a plain (non-programmable) NIC.

``connect(a, b)`` wires two servers back-to-back, which is all the
paper's single-link experiments need.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Environment
from ..units import Gbps
from .costs import CostModel, default_cost_model
from .cpu import CpuCluster
from .dpu import Dpu
from .memory import MemoryRegion
from .nic import Nic, Wire
from .profiles import DpuProfile, EPYC_HOST, HostProfile
from .ssd import Ssd

__all__ = ["Server", "make_server", "connect"]


class Server:
    """A host (plus optional DPU) with local SSDs."""

    def __init__(self, env: Environment, name: str,
                 host_profile: HostProfile,
                 dpu: Optional[Dpu],
                 ssds: List[Ssd],
                 costs: CostModel,
                 peers: Optional[List["PeerAccelerator"]] = None):
        self.env = env
        self.name = name
        self.host_profile = host_profile
        self.costs = costs
        self.host_cpu = CpuCluster(
            env, host_profile.cores, host_profile.frequency_hz,
            name=f"{name}.host_cpu", cpu_class="host",
        )
        self.host_memory = MemoryRegion(
            env, host_profile.memory_bytes, name=f"{name}.host_mem"
        )
        self.dpu = dpu
        self.ssds = ssds
        #: PCIe peer accelerators (GPUs/FPGAs), keyed by kind.
        self.peers = {peer.kind: peer for peer in (peers or [])}
        if dpu is not None:
            # The server's network port is the DPU's NIC.
            self.nic = dpu.nic
        else:
            self.nic = Nic(env, 100 * Gbps, name=f"{name}.nic")

    def ssd(self, index: int = 0) -> Ssd:
        """The ``index``-th local SSD."""
        return self.ssds[index]

    def peer(self, kind: str):
        """The PCIe peer accelerator of ``kind``, or None."""
        return self.peers.get(kind)

    def __repr__(self) -> str:
        dpu_part = self.dpu.name if self.dpu else "no-dpu"
        return (
            f"Server({self.name}: host={self.host_profile.name}, "
            f"dpu={dpu_part}, ssds={len(self.ssds)})"
        )


def make_server(env: Environment, name: str = "server",
                host_profile: HostProfile = EPYC_HOST,
                dpu_profile: Optional[DpuProfile] = None,
                peer_specs=()) -> Server:
    """Build a server with the given host and DPU SKU and one SSD.

    ``peer_specs`` adds PCIe peer accelerators (GPU/FPGA), e.g.
    ``peer_specs=(GPU_SPEC,)``.
    """
    from .peer import PeerAccelerator

    dpu = (
        Dpu(env, dpu_profile, name=f"{name}.dpu")
        if dpu_profile is not None else None
    )
    ssds = [Ssd(env, name=f"{name}.ssd0")]
    peers = [
        PeerAccelerator(env, spec, name=f"{name}.{spec.name}")
        for spec in peer_specs
    ]
    return Server(env, name, host_profile, dpu, ssds,
                  default_cost_model(), peers=peers)


def connect(server_a: Server, server_b: Server) -> Wire:
    """Wire two servers' network ports together (point to point)."""
    if server_a.env is not server_b.env:
        raise ValueError("servers belong to different simulations")
    return Wire(server_a.env, server_a.nic, server_b.nic)


def attach_to_switch(switch, *servers: Server) -> None:
    """Attach servers to a switch, addressed by their names."""
    for server in servers:
        switch.attach(server.nic, server.name)
