"""The telemetry bundle wired through :class:`DpdpuRuntime`.

One :class:`Telemetry` object carries the two observability channels:

* ``tracer`` — a sim-time :class:`~repro.obs.trace.Tracer`, or the
  shared no-op :data:`~repro.obs.trace.NULL_TRACER` when tracing is
  off (the default, so instrumentation costs nothing);
* ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` that
  adopts the counters/tallies/gauges the engines and hardware models
  already maintain, under one hierarchical namespace.

Usage::

    telemetry = Telemetry(tracing=True)
    runtime = DpdpuRuntime(server, telemetry=telemetry)
    ...run the workload...
    telemetry.tracer.write_chrome("trace.json")
    print(telemetry.metrics.render_table(env.now))
"""

from __future__ import annotations

from typing import List, Tuple

from .metrics import MetricsRegistry
from .trace import NULL_TRACER, Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Tracer + metrics registry, injected into a runtime.

    ``node`` names the runtime this bundle observes in distributed
    traces (defaults to ``name``); per-node bundles handed out by
    :class:`~repro.obs.plane.ClusterTelemetry` set it to the cluster
    node's name so every span is node-tagged.  :meth:`tracers` lists
    the bundle's ``(node, tracer)`` pair the way the plane's
    ``tracers()`` lists a cluster's, so one node and a cluster go
    through the same ``merge_chrome_events`` and ``build_report``.
    """

    def __init__(self, env=None, tracing: bool = False,
                 name: str = "telemetry", node: str = None):
        self.name = name
        self.node = node if node is not None else name
        self.metrics = MetricsRegistry(name=name)
        self.tracer = Tracer(env, node=self.node) if tracing \
            else NULL_TRACER

    def bind(self, env) -> None:
        """Attach the tracer to a simulation environment's clock."""
        self.tracer.bind(env)

    def tracers(self) -> List[Tuple[str, Tracer]]:
        """``[(node, tracer)]`` while tracing, else ``[]``."""
        return [(self.node, self.tracer)] if self.tracer.enabled else []

    def register_runtime(self, runtime) -> None:
        """Adopt a :class:`DpdpuRuntime`'s instruments into the registry.

        Gives the scattered per-engine collectors hierarchical names
        (``ce.*`` / ``ne.*`` / ``se.*`` plus ``host.*`` / ``dpu.*`` /
        ``nic.*`` hardware meters) so one ``snapshot()`` covers the
        whole deployment.  Safe to call once per runtime; duplicate
        adoption of the same instruments is a no-op.
        """
        server = runtime.server
        dpu = server.dpu
        metrics = self.metrics
        metrics.register("host.cpu.cycles",
                         server.host_cpu.cycles_charged)
        metrics.register("dpu.cpu.cycles", dpu.cpu.cycles_charged)
        metrics.register("nic.tx_bytes", server.nic.tx_bytes)
        metrics.register("nic.rx_bytes", server.nic.rx_bytes)
        metrics.register("pcie.bytes_moved", dpu.pcie.bytes_moved)
        for kind, accelerator in dpu.accelerators.items():
            metrics.register(f"dpu.asic.{kind}.jobs", accelerator.jobs)

        compute = runtime.compute
        metrics.register("ce.kernel.execs", compute.kernel_executions)
        metrics.register("ce.kernel.latency", compute.kernel_latency)
        metrics.register("ce.kernel.degraded", compute.degraded)
        scheduler = compute.scheduler
        metrics.register("ce.sched.dispatched", scheduler.dispatched)
        metrics.register("ce.sched.spilled", scheduler.spilled)
        metrics.register("ce.sched.wait", scheduler.wait_time)

        network = runtime.network
        traffic = getattr(network, "traffic", None)
        if traffic is not None:
            traffic.tracer = self.tracer
            metrics.register("traffic.failovers", traffic.failovers)
        metrics.register("ne.ops_offloaded", network.ops_offloaded)
        metrics.register("ne.sq.occupancy",
                         network.rings.submission.occupancy)
        metrics.register("ne.tcp.segments_rx",
                         network.tcp.segments_rx)
        metrics.register("ne.tcp.segments_tx",
                         network.tcp.segments_tx)

        storage = runtime.storage
        metrics.register("se.host_ops", storage.host_ops)
        metrics.register("se.dpu_ops", storage.dpu_ops)
        metrics.register("se.host_op_latency", storage.host_op_latency)
        metrics.register("se.persist_ack_latency",
                         storage.persist_ack_latency)
        metrics.register("se.sq.occupancy",
                         storage.rings.submission.occupancy)
        metrics.register("se.fs.bytes_read", storage.fs.bytes_read)
        metrics.register("se.fs.bytes_written",
                         storage.fs.bytes_written)
        metrics.register("se.journal.appends", storage.journal.appends)
        metrics.register("se.journal.append_latency",
                         storage.journal.append_latency)
        metrics.register("se.apply_failures", storage.apply_failures)
        for label, cache in (("dpu", storage.dpu_cache),
                             ("host", storage.host_cache)):
            if cache is not None:
                metrics.register(f"se.cache.{label}.hits", cache.hits)
                metrics.register(f"se.cache.{label}.misses",
                                 cache.misses)
                metrics.register(f"se.cache.{label}.evictions",
                                 cache.evictions)

        injector = getattr(runtime, "injector", None)
        if injector is not None:
            self.register_injector(injector)

    def register_injector(self, injector) -> None:
        """Adopt a :class:`~repro.faults.FaultInjector`'s counters.

        Registered under ``faults.*`` so injected errors, delays and
        down-window hits land in the same snapshot as the
        engine metrics they perturb.
        """
        metrics = self.metrics
        metrics.register("faults.injected", injector.injected)
        metrics.register("faults.errors", injector.errors)
        metrics.register("faults.delays", injector.delays)
        metrics.register("faults.down_hits", injector.downs)

    def register_breaker(self, breaker) -> None:
        """Adopt a :class:`~repro.faults.CircuitBreaker`'s counters.

        Registered under ``<breaker name>.*`` (trips, rejections,
        probes) — the failover audit trail.
        """
        metrics = self.metrics
        metrics.register(f"{breaker.name}.trips", breaker.trips)
        metrics.register(f"{breaker.name}.rejections",
                         breaker.rejections)
        metrics.register(f"{breaker.name}.probes", breaker.probes)

    def __repr__(self) -> str:
        mode = "tracing" if self.tracer.enabled else "metrics-only"
        return f"Telemetry({self.name}, {mode}, {len(self.metrics)} metrics)"
