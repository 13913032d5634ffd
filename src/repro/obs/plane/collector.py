"""The live telemetry plane: cluster-wide scraping into snapshots.

:class:`ClusterTelemetry` is the multi-node counterpart of
:class:`~repro.obs.telemetry.Telemetry`: it hands out one per-node
telemetry bundle (``plane.node("node0")``) for the cluster to inject
into each :class:`~repro.core.dpdpu.DpdpuRuntime`, then — once
attached to a :class:`~repro.cluster.Cluster` — scrapes every node's
:class:`~repro.obs.metrics.MetricsRegistry` on a fixed sim-time
interval into versioned :class:`TelemetrySnapshot` objects.

Each scrape also computes the derived sliding-window series the
future offload advisor and autoscaler consume:

* ``shard_heat`` — per-shard request deltas, summed across nodes;
* ``goodput_ops_per_s`` — per-node completed shard ops per second;
* ``p50_latency_s`` / ``p99_latency_s`` / ``p999_latency_s`` —
  per-node DDS service time;
* ``host_core_occupancy`` — host cores consumed by the data path
  (cycle delta / interval / frequency), the paper's headline metric;
* ``goodput_per_host_core`` — goodput divided by occupied host
  cores (floored at a milli-core), the offload-efficiency ratio;
* ``breaker_state`` — 0 closed / 1 open / 2 half-open;
* ``ontime_fraction`` — per-client on-time answer fraction, derived
  from the ``sli.*`` counters :class:`~repro.cluster.ClusterClient`
  registers when handed a plane — the user-facing signal server-side
  latency cannot provide (it never sees queueing upstream of the
  node, e.g. a saturated switch port).

When tracing is on, an :class:`~repro.obs.attr.AttributionCollector`
can be attached as ``plane.attribution`` — each scrape then folds
newly finished request spans into per-window attribution ledgers.

Zero-overhead-off is structural: a cluster built without a plane has
no per-node registries beyond the stock runtime ones and no scrape
process at all; with a plane attached, scraping only *reads*
instruments (never yields into hardware, never charges cycles), so
simulated results are unchanged — only observed.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry import Telemetry
from ..trace import merge_chrome_events

__all__ = ["ClusterTelemetry", "TelemetrySnapshot"]

#: matches the per-shard op counters ClusterDdsServer registers
_SHARD_OPS = re.compile(r"\.shard(\d+)\.ops$")

#: matches the per-tenant admission verdict counters the
#: AdmissionController registers (tenant.<name>.<verdict>)
_TENANT_VERDICT = re.compile(
    r"^tenant\.([^.{]+)\.(admitted|rejected|shed)$")

_BREAKER_STATES = {"closed": 0.0, "open": 1.0, "half_open": 2.0}

#: scrapes the plane retains (oldest dropped first)
_MAX_SNAPSHOTS = 512


class TelemetrySnapshot:
    """One versioned scrape of every node's registry."""

    __slots__ = ("version", "t_s", "interval_s", "per_node", "deltas",
                 "derived")

    def __init__(self, version: int, t_s: float, interval_s: float,
                 per_node: Dict[str, Dict[str, float]],
                 deltas: Dict[str, Dict[str, float]],
                 derived: Dict[str, Dict[str, float]]):
        self.version = version
        self.t_s = t_s
        self.interval_s = interval_s
        #: node -> full flattened registry snapshot
        self.per_node = per_node
        #: node -> MetricsRegistry.diff against the previous scrape
        self.deltas = deltas
        #: series name -> {node or shard key: value} for this window
        self.derived = derived

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (flight-recorder bundles)."""
        return {
            "version": self.version,
            "t_s": self.t_s,
            "interval_s": self.interval_s,
            "per_node": {name: dict(snap)
                         for name, snap in self.per_node.items()},
            "deltas": {name: dict(delta)
                       for name, delta in self.deltas.items()},
            "derived": {name: dict(values)
                        for name, values in self.derived.items()},
        }

    def __repr__(self) -> str:
        return (f"TelemetrySnapshot(v{self.version} @ {self.t_s:g}s, "
                f"{len(self.per_node)} nodes)")


class ClusterTelemetry:
    """Per-node telemetry bundles plus the cluster scrape loop.

    Usage::

        plane = ClusterTelemetry(tracing=True, scrape_interval_s=5e-4)
        cluster = Cluster(env, 3, telemetry=plane)   # attaches itself
        plane.monitor = SloMonitor([...])            # optional
        plane.recorder = FlightRecorder(retain_s=2e-3)
        env.run(until=...)
        plane.latest().derived["goodput_ops_per_s"]
        write_merged_chrome("t.json", plane.tracers())   # merged trace

    One plane observes one cluster: per-node registries adopt
    engine instruments, so re-attaching would collide names.
    """

    def __init__(self, env=None, tracing: bool = False,
                 name: str = "cluster",
                 scrape_interval_s: float = 5.0e-4,
                 window: int = 8):
        if scrape_interval_s <= 0:
            raise ValueError("scrape interval must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        self._env = env
        self.name = name
        self.tracing = bool(tracing)
        self.scrape_interval_s = scrape_interval_s
        self.window = window
        #: node name -> that node's Telemetry bundle
        self.nodes: Dict[str, Telemetry] = {}
        #: versioned scrapes, oldest first (bounded)
        self.snapshots: deque = deque(maxlen=_MAX_SNAPSHOTS)
        #: evaluated each scrape when set
        self.monitor = None
        self.recorder = None
        #: an AttributionCollector fed each scrape when set
        self.attribution = None
        self._versions = itertools.count(1)
        self._prev: Dict[str, Dict[str, float]] = {}
        self._prev_t: Optional[float] = None
        self._windows: Dict[str, Dict[str, deque]] = {}
        self._breakers: Dict[str, Any] = {}
        self._host_hz: Dict[str, float] = {}
        self._cluster = None
        self._running = False
        self._last_fault_total = 0.0

    # -- per-node bundles ----------------------------------------------------

    def node(self, name: str) -> Telemetry:
        """The telemetry bundle for node ``name`` (create on first use)."""
        telemetry = self.nodes.get(name)
        if telemetry is None:
            telemetry = Telemetry(self._env, tracing=self.tracing,
                                  name=name, node=name)
            self.nodes[name] = telemetry
        return telemetry

    def tracers(self) -> List[Tuple[str, Any]]:
        """(node, tracer) pairs for every tracing-enabled node."""
        return [(name, telemetry.tracer)
                for name, telemetry in sorted(self.nodes.items())
                if telemetry.tracer.enabled]

    # -- attachment and the scrape loop -------------------------------------

    def attach(self, cluster, start: bool = True) -> None:
        """Bind the plane to a built cluster and start scraping.

        ``Cluster(..., telemetry=plane)`` calls this automatically;
        call it yourself (``start=False`` to scrape manually) only
        when assembling nodes by hand.
        """
        if self._cluster is not None:
            raise ValueError(
                "ClusterTelemetry observes exactly one cluster; "
                "build a fresh plane per cluster")
        self._cluster = cluster
        self._env = cluster.env
        for node in cluster.nodes:
            self._breakers[node.name] = node.breaker
            self._host_hz[node.name] = node.server.host_cpu.frequency_hz
        if start:
            self.start()

    def start(self) -> None:
        """Launch the sim-time scrape process (idempotent)."""
        if self._running:
            return
        if self._env is None:
            raise ValueError("attach a cluster (or pass env) first")
        self._running = True
        self._prev_t = self._env.now
        self._env.process(self._scrape_loop(),
                          name=f"{self.name}-telemetry-scrape")

    def _scrape_loop(self):
        while True:
            yield self._env.timeout(self.scrape_interval_s)
            self.scrape()

    # -- one scrape ----------------------------------------------------------

    def scrape(self) -> TelemetrySnapshot:
        """Take one versioned snapshot across every node, now."""
        now = self._env.now if self._env is not None else 0.0
        interval = (now - self._prev_t
                    if self._prev_t is not None else 0.0)
        per_node: Dict[str, Dict[str, float]] = {}
        deltas: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.nodes):
            registry = self.nodes[name].metrics
            per_node[name] = registry.snapshot(now)
            deltas[name] = registry.diff(self._prev.get(name, {}), now)
        derived = self._derive(per_node, deltas, interval)
        snapshot = TelemetrySnapshot(next(self._versions), now,
                                     interval, per_node, deltas,
                                     derived)
        self.snapshots.append(snapshot)
        self._prev = per_node
        self._prev_t = now
        for metric, values in derived.items():
            windows = self._windows.setdefault(metric, {})
            for key, value in values.items():
                series = windows.get(key)
                if series is None:
                    series = windows[key] = deque(maxlen=self.window)
                series.append(value)
        if self.attribution is not None:
            self.attribution.collect(self)
        violations = (self.monitor.evaluate(snapshot)
                      if self.monitor is not None else [])
        if self.recorder is not None:
            self.recorder.observe(snapshot)
            if violations:
                self.recorder.trigger("slo_violation", self,
                                      violations=violations)
            fault_total = max(
                (snap.get("faults.injected", 0.0)
                 for snap in per_node.values()), default=0.0)
            if fault_total > self._last_fault_total:
                self.recorder.trigger("fault_injected", self)
            self._last_fault_total = fault_total
        return snapshot

    def _derive(self, per_node, deltas, interval):
        """The sliding-window series for one scrape window."""
        derived: Dict[str, Dict[str, float]] = {
            "goodput_ops_per_s": {},
            "p50_latency_s": {},
            "p99_latency_s": {},
            "p999_latency_s": {},
            "host_core_occupancy": {},
            "goodput_per_host_core": {},
            "breaker_state": {},
            "shard_heat": {},
            "tenant_admitted": {},
            "tenant_rejected": {},
            "tenant_shed": {},
            "ontime_fraction": {},
        }
        heat = derived["shard_heat"]
        for name, delta in deltas.items():
            prefix = f"dds.{name}."
            served = (delta.get(f"{prefix}shard_local", 0.0)
                      + delta.get(f"{prefix}shard_routed", 0.0)
                      - delta.get(f"{prefix}shard_errors", 0.0))
            goodput = served / interval if interval > 0 else 0.0
            derived["goodput_ops_per_s"][name] = goodput
            snap = per_node[name]
            derived["p50_latency_s"][name] = snap.get(
                f"{prefix}request_latency.p50", 0.0)
            derived["p99_latency_s"][name] = snap.get(
                f"{prefix}request_latency.p99", 0.0)
            # p999 needs the raw reservoir, not the snapshot keys
            latency = self.nodes[name].metrics.get(
                f"{prefix}request_latency")
            derived["p999_latency_s"][name] = (
                latency.p999 if latency is not None
                and hasattr(latency, "p999") else 0.0)
            hz = self._host_hz.get(name)
            if hz and interval > 0:
                occupancy = (delta.get("host.cpu.cycles", 0.0)
                             / interval / hz)
            else:
                occupancy = 0.0
            derived["host_core_occupancy"][name] = occupancy
            # floor at a milli-core so idle hosts don't divide by ~0
            derived["goodput_per_host_core"][name] = (
                goodput / max(occupancy, 1e-3))
            # Client-observed SLI (bundles registered by
            # ClusterClient): the fraction of this window's answers
            # that were ok *and* on time.  Windows with no answers
            # are skipped — no answers is "no data", not "all late".
            answered = delta.get(f"sli.{name}.answered", 0.0)
            if answered > 0:
                derived["ontime_fraction"][name] = (
                    delta.get(f"sli.{name}.ontime", 0.0) / answered)
            for key, value in delta.items():
                match = _SHARD_OPS.search(key)
                if match and value:
                    shard = match.group(1)
                    heat[shard] = heat.get(shard, 0.0) + value
                    continue
                verdict = _TENANT_VERDICT.match(key)
                if verdict and value:
                    series = derived[f"tenant_{verdict.group(2)}"]
                    tenant = verdict.group(1)
                    series[tenant] = series.get(tenant, 0.0) + value
        for name, breaker in sorted(self._breakers.items()):
            derived["breaker_state"][name] = _BREAKER_STATES.get(
                breaker.state, 0.0)
        return derived

    # -- online queries ------------------------------------------------------

    def latest(self) -> Optional[TelemetrySnapshot]:
        """The most recent snapshot (None before the first scrape)."""
        return self.snapshots[-1] if self.snapshots else None

    def series(self, metric: str, key: str) -> List[float]:
        """Sliding-window values of a derived series for one node.

        ``metric`` is a derived-series name (``"goodput_ops_per_s"``,
        ``"breaker_state"``, ...); ``key`` is a node name — or a shard
        number string for ``"shard_heat"``.  At most :attr:`window`
        entries, oldest first.
        """
        return list(self._windows.get(metric, {}).get(key, ()))

    def hot_shards(self, k: int = 5) -> List[Tuple[str, float]]:
        """Top-``k`` shards by request heat in the latest window."""
        latest = self.latest()
        if latest is None:
            return []
        heat = latest.derived.get("shard_heat", {})
        return sorted(heat.items(),
                      key=lambda kv: (-kv[1], int(kv[0])))[:k]

    def adopt_node(self, node) -> None:
        """Register a node added after :meth:`attach` (autoscaling).

        The scrape loop discovers the node's registry through its
        telemetry bundle automatically; this wires up the breaker
        series and the host-frequency divisor that ``attach`` set up
        for the original nodes.
        """
        self._breakers[node.name] = node.breaker
        self._host_hz[node.name] = node.server.host_cpu.frequency_hz

    # -- export (the CLI's trace-output protocol) ---------------------------

    def to_chrome_events(self) -> List[dict]:
        """The merged multi-node Chrome trace (one pid per node)."""
        return merge_chrome_events(self.tracers())

    def flame_summary(self, max_rows: int = 60) -> str:
        """Per-node flame summaries, concatenated."""
        sections = []
        for name, tracer in self.tracers():
            sections.append(f"[{name}]\n"
                            + tracer.flame_summary(max_rows=max_rows))
        return "\n\n".join(sections) if sections \
            else "(no spans recorded)"

    def __repr__(self) -> str:
        return (f"ClusterTelemetry({self.name}, {len(self.nodes)} "
                f"nodes, {len(self.snapshots)} snapshots)")
