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
                 scheduler_policy: str = "hybrid",
                 dpu_cache_bytes: int = 0,
                 host_cache_bytes: int = 0,
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
        self.compute = ComputeEngine(server, policy=scheduler_policy,
                                     telemetry=self.telemetry)
        self.network = NetworkEngine(server, telemetry=self.telemetry)
        self.storage = StorageEngine(
            server,
            dpu_cache_bytes=dpu_cache_bytes,
            host_cache_bytes=host_cache_bytes,
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

    def metrics_snapshot(self) -> dict:
        """A flat operational snapshot of the whole deployment.

        Meant for dashboards/tests: who is busy, what moved, cache
        efficiency — all simulated-time figures as of ``env.now``.
        """
        server = self.server
        dpu = server.dpu
        snapshot = {
            "time_s": self.env.now,
            "host_cores_consumed": server.host_cpu.cores_consumed(),
            "dpu_cores_consumed": dpu.cpu.cores_consumed(),
            "host_cycles": server.host_cpu.cycles_charged.value,
            "dpu_cycles": dpu.cpu.cycles_charged.value,
            "dpu_memory_used_bytes": dpu.memory.used_bytes,
            "pcie_bytes_moved": dpu.pcie.bytes_moved.value,
            "nic_tx_bytes": server.nic.tx_bytes.value,
            "nic_rx_bytes": server.nic.rx_bytes.value,
            "se_host_ops": self.storage.host_ops.value,
            "se_dpu_ops": self.storage.dpu_ops.value,
            "ne_ops_offloaded": self.network.ops_offloaded.value,
            "ce_kernel_executions":
                self.compute.kernel_executions.value,
            "sprocs_dispatched":
                self.compute.scheduler.dispatched.value,
        }
        for kind, accelerator in dpu.accelerators.items():
            snapshot[f"asic_{kind}_jobs"] = accelerator.jobs.value
        if self.storage.dpu_cache is not None:
            snapshot["dpu_cache_hit_rate"] = \
                self.storage.dpu_cache.hit_rate()
        if self.storage.host_cache is not None:
            snapshot["host_cache_hit_rate"] = \
                self.storage.host_cache.hit_rate()
        return snapshot

    def __repr__(self) -> str:
        return f"DpdpuRuntime({self.server.name})"
