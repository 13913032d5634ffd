"""The DPDPU runtime: the three engines assembled on one server.

This is the library's main entry point::

    from repro.sim import Environment
    from repro.hardware import make_server, BLUEFIELD2
    from repro.core import DpdpuRuntime

    env = Environment()
    server = make_server(env, dpu_profile=BLUEFIELD2)
    dpdpu = DpdpuRuntime(server)

    ce, ne, se = dpdpu.compute, dpdpu.network, dpdpu.storage

Cross-engine state sharing (Section 4) is the DPU's memory region:
all three engines allocate from ``server.dpu.memory``, so cache
growth, RDMA staging, and offloaded working sets genuinely compete.
"""

from __future__ import annotations

from ..errors import ReproError
from ..hardware.server import Server
from ..obs import Telemetry
from .compute import ComputeEngine
from .dds import DdsServer
from .network import NetworkEngine
from .pipeline import Pipeline
from .requests import AsyncRequest, wait
from .storage import StorageEngine

__all__ = ["DpdpuRuntime"]


class DpdpuRuntime:
    """One server's DPDPU deployment: CE + NE + SE."""

    def __init__(self, server: Server,
                 se_ring_capacity: int = 4096,
                 telemetry: Telemetry = None,
                 injector=None):
        if server.dpu is None:
            raise ReproError("DPDPU requires a DPU-equipped server")
        self.server = server
        self.env = server.env
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        self.telemetry.bind(self.env)
        #: optional FaultInjector: installed onto the server's
        #: hardware and threaded into the SE's private devices
        self.injector = injector
        if injector is not None:
            injector.install(server)
        self.compute = ComputeEngine(server, telemetry=self.telemetry)
        self.network = NetworkEngine(server, telemetry=self.telemetry)
        self.storage = StorageEngine(
            server,
            ring_capacity=se_ring_capacity,
            telemetry=self.telemetry,
            injector=injector,
        )
        self.compute.runtime = self
        self.telemetry.register_runtime(self)

    # -- composition helpers ---------------------------------------------------

    @staticmethod
    def wait(request: AsyncRequest):
        """``yield from dpdpu.wait(req)`` — Figure 6's ``wait``."""
        return wait(request)

    def pipeline(self, name: str = "pipeline",
                 depth: int = 16) -> Pipeline:
        """A new cross-engine streaming pipeline."""
        return Pipeline(self.env, name=name, depth=depth)

    def dds(self, port: int, **kwargs) -> DdsServer:
        """Start a DDS server on this runtime."""
        return DdsServer(self, port, **kwargs)

    def __repr__(self) -> str:
        return f"DpdpuRuntime({self.server.name})"
