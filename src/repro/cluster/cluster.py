"""N DPU-equipped servers behind one switch, serving sharded tenants.

The :class:`Cluster` is the paper's Figure-9 premise made concrete:
DPDPU only pays off at data-center scale, so this wires together the
single-node ingredients the repo already has — ``make_server`` +
``BLUEFIELD2``, the output-queued :class:`Switch`, per-node
:class:`DpdpuRuntime` with a DDS offload engine, and the fault
layer's :meth:`TrafficDirector.protect` breaker — into an N-node
sharded serving tier:

* a :class:`ShardMap` (consistent hash, crc32 only) places shards on
  nodes deterministically;
* every node runs a :class:`ClusterDdsServer` that serves its own
  shards on the DPU path and forwards the rest through its
  :class:`ShardRouter` (DPU-side, no host hop);
* every node hosts a :class:`MigrationService` so a failed peer's
  shards can be pulled off it through its host kernel stack.

Shard files are pre-created on **every** node: a migration target
writes pulled pages into its local replica file, so failover needs no
allocation step.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..baselines.host_tcp import make_kernel_tcp
from ..buffers import Buffer
from ..core.dds import DdsClient
from ..core.dpdpu import DpdpuRuntime
from ..core.wire import classify, response_ok, stamp_expiry
from ..hardware import BLUEFIELD2, Switch, make_server
from ..sim.stats import Counter
from ..units import Gbps, PAGE_SIZE
from .rebalance import MigrationService
from .router import ClusterDdsServer, ShardRouter
from .sharding import ShardMap, stable_hash

__all__ = ["Cluster", "ClusterNode", "ClusterClient"]

#: breaker tuning for DPU-failure detection: ~7 probes per window,
#: trips after 4 consecutive failures, and stays open long enough
#: (5 ms) that a drain completes before any fail-back attempt.
DEFAULT_BREAKER = {
    "window_s": 1.0e-3,
    "min_failures": 4,
    "rate_threshold": 0.5,
    "reset_timeout_s": 5.0e-3,
}

#: SE submission-ring slots per node: deep enough that a saturated
#: node back-pressures through TCP, not through ring overflow
_SE_RING_CAPACITY = 1 << 16

#: how often a client's service discovery re-reads the member list
_TOPOLOGY_POLL_S = 5.0e-4


class ClusterNode:
    """One DPU-equipped server plus its cluster-facing services."""

    def __init__(self, cluster: "Cluster", name: str, server, runtime,
                 dds: ClusterDdsServer, router: ShardRouter, breaker,
                 shard_files: Dict[int, int], shard_bytes: int):
        self.cluster = cluster
        self.name = name
        self.server = server
        self.runtime = runtime
        self.dds = dds
        self.router = router
        self.breaker = breaker
        self.shard_files = shard_files
        self.shard_bytes = shard_bytes
        #: set by the rebalancer once the node is fully drained
        self.retired = False

    def owned_shards(self) -> List[int]:
        """Shards the live shard map currently places on this node."""
        return self.cluster.shardmap.assignment().get(self.name, [])

    def __repr__(self) -> str:
        state = "retired" if self.retired else "serving"
        return f"ClusterNode({self.name}, {state})"


class Cluster:
    """N sharded DDS nodes on one simulated top-of-rack switch."""

    def __init__(self, env, n_nodes: int, n_shards: int = 32,
                 shard_bytes: int = 16 * PAGE_SIZE,
                 port: int = 9300,
                 replicas: int = 64,
                 injector=None,
                 network_bps: float = 100 * Gbps,
                 telemetry=None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if shard_bytes % PAGE_SIZE:
            raise ValueError("shard_bytes must be page-aligned")
        self.env = env
        #: the ClusterTelemetry plane observing this cluster (or None:
        #: zero-overhead-off — no per-node registries, no scrape loop)
        self.telemetry = telemetry
        self.port = port
        self.migration_port = port + 1000
        self.shard_bytes = shard_bytes
        self._injector = injector
        #: fabric port speed — the distributed query planner reads
        #: this so plan estimates and the simulated switch agree
        self.network_bps = network_bps
        self.switch = Switch(env, port_bandwidth_bps=network_bps,
                             name="tor")
        # Control-plane QoS: migration frames (pull requests, shard
        # payloads and their acks) jump a saturated output port's data
        # backlog — otherwise relieving an overloaded node waits on
        # round trips queued behind the overload itself.
        self.switch.prioritize_port(self.migration_port)
        names = [f"node{i}" for i in range(n_nodes)]
        self._next_node_index = n_nodes
        self.shardmap = ShardMap(n_shards, names, replicas)
        self.nodes: List[ClusterNode] = []
        self._by_name: Dict[str, ClusterNode] = {}
        self.migration_services: Dict[str, MigrationService] = {}
        for name in names:
            self._build_node(name)
        if telemetry is not None:
            telemetry.attach(self)

    def _build_node(self, name: str) -> ClusterNode:
        """Assemble one node and attach it to the switch (no ring)."""
        env = self.env
        n_shards = self.shardmap.n_shards
        server = make_server(env, name=name, dpu_profile=BLUEFIELD2)
        node_telemetry = (self.telemetry.node(name)
                          if self.telemetry is not None else None)
        runtime = DpdpuRuntime(server, injector=self._injector,
                               se_ring_capacity=_SE_RING_CAPACITY,
                               telemetry=node_telemetry)
        breaker = runtime.network.traffic.protect(env, **DEFAULT_BREAKER)
        shard_files = {
            shard: runtime.storage.create(f"shard{shard}",
                                          size=self.shard_bytes)
            for shard in range(n_shards)
        }
        router = ShardRouter(env, name, runtime.network, self.port)
        dds = ClusterDdsServer(
            runtime, self.port, node_name=name,
            shardmap=self.shardmap, shard_files=shard_files,
            shard_bytes=self.shard_bytes, router=router,
            breaker=breaker)
        node = ClusterNode(self, name, server, runtime, dds,
                           router, breaker, shard_files,
                           self.shard_bytes)
        self.nodes.append(node)
        self._by_name[name] = node
        self.switch.attach(server.nic, name)
        service = MigrationService(node, self.migration_port)
        self.migration_services[name] = service
        # The exporter listens on the host kernel stack, but the NE
        # steers all TCP to the DPU; a port rule (matched before the
        # protocol rule) keeps the migration port host-reachable on a
        # *healthy* node — live drains, joins, and hot-shard splits
        # pull from nodes whose DPU never failed.
        runtime.network.traffic.steer_tcp_port(
            self.migration_port, target="host", name=f"mig:{name}")
        if node_telemetry is not None:
            node_telemetry.register_breaker(breaker)
            registry = node_telemetry.metrics
            registry.register(f"router.{name}.forwards",
                              router.forwards)
            registry.register(f"router.{name}.forward_failures",
                              router.forward_failures)
            registry.register(f"router.{name}.forward_latency",
                              router.forward_latency)
            registry.register(f"mig.{name}.exports", service.exports)
            registry.register(f"mig.{name}.bytes",
                              service.exported_bytes)
            registry.register(f"mig.{name}.errors",
                              service.export_errors)
        return node

    def add_node(self) -> ClusterNode:
        """Provision one more node (autoscale scale-up).

        The node is built, switched in and observable, but **not** on
        the hash ring yet — the caller (the autoscaler) decides when
        to :meth:`ShardMap.join_node` and migrate, so routing never
        points at a node whose shards haven't landed.  Names continue
        the ``node{i}`` sequence monotonically (retired indices are
        never reused — determinism over reuse).
        """
        name = f"node{self._next_node_index}"
        self._next_node_index += 1
        node = self._build_node(name)
        if self.telemetry is not None:
            self.telemetry.adopt_node(node)
        return node

    def node(self, name: str) -> ClusterNode:
        """Look a node up by name (``node0`` .. ``node{N-1}``)."""
        return self._by_name[name]

    def metrics_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-node cluster-layer counters (for tests and benches)."""
        snapshot: Dict[str, Dict[str, float]] = {}
        for node in self.nodes:
            snapshot[node.name] = {
                "shard_local": node.dds.shard_local.value,
                "shard_routed": node.dds.shard_routed.value,
                "shard_errors": node.dds.shard_errors.value,
                "shard_rejections":
                    node.dds.shard_rejections.value,
                "shard_failovers": node.dds.shard_failovers.value,
                "forwards": node.router.forwards.value,
                "forward_failures":
                    node.router.forward_failures.value,
                "breaker_trips": node.breaker.trips.value,
                "retired": float(node.retired),
            }
        return snapshot

    def __repr__(self) -> str:
        return (f"Cluster({len(self.nodes)} nodes, "
                f"{self.shardmap.n_shards} shards)")


class ClusterClient:
    """A shard-aware client machine attached to the cluster switch.

    Keeps one kernel-TCP DDS connection per node and targets each
    request at the shard's **current** owner — except a deterministic
    ``stale_fraction``, which goes to a fixed ``home`` node instead,
    modelling a client routing cache that lags the shard map.  Those
    misdirected requests are what exercise the DPU-side router.
    """

    def __init__(self, cluster: Cluster, name: str,
                 home: Optional[str] = None,
                 stale_fraction: float = 0.0,
                 sli_plane=None,
                 sli_deadline_s: Optional[float] = None,
                 stamp_deadline_s: Optional[float] = None):
        self.cluster = cluster
        self.name = name
        self.env = cluster.env
        self.home = home or cluster.nodes[0].name
        self.stale_fraction = stale_fraction
        self.server = make_server(self.env, name=name,
                                  dpu_profile=None)
        cluster.switch.attach(self.server.nic, name)
        self.stack = make_kernel_tcp(self.server, name=f"{name}.tcp")
        self._clients: Dict[str, DdsClient] = {}
        self.requests: List = []
        #: (shard, submit sim time) aligned with :attr:`requests`
        self.request_meta: List = []
        # Client-observed SLI: answered / on-time counters scraped by
        # a ClusterTelemetry plane.  Server-side latency cannot see
        # queueing upstream of the node (a saturated switch port), so
        # user-facing SLOs watch what the *client* experienced.  The
        # counters live in the plane's registry and only ever absorb
        # reads — a plane-less (bare) run is byte-identical.
        self._sli_answered = self._sli_ontime = None
        self._sli_deadline_s = sli_deadline_s
        # Deadline propagation: stamp every JSON request with an
        # absolute expiry so admission downstream can shed work by
        # *age* — the stamp keeps counting through queues (client
        # stack, switch port, node ingress) that are upstream of any
        # server-side signal.  Changes request byte sizes, so runs
        # being compared must agree on whether it is set.
        self._stamp_deadline_s = stamp_deadline_s
        if sli_plane is not None and sli_deadline_s is not None:
            registry = sli_plane.node(name).metrics
            self._sli_answered = Counter(f"sli.{name}.answered")
            self._sli_ontime = Counter(f"sli.{name}.ontime")
            registry.register(f"sli.{name}.answered",
                              self._sli_answered)
            registry.register(f"sli.{name}.ontime", self._sli_ontime)

    def connect_all(self):
        """Open one connection per live node (before offering load)."""
        for node in self.cluster.nodes:
            if node.retired:
                continue
            yield from self.connect_to(node.name)

    def connect_to(self, node_name: str):
        """Open a connection to one node (autoscaled late joiners)."""
        connection = yield from self.stack.connect(
            self.cluster.port, remote=node_name)
        self._clients[node_name] = DdsClient(
            connection, name=f"{self.name}->{node_name}")

    def track_topology(self):
        """Poll membership and dial nodes that joined after start.

        Autoscaled capacity only relieves a congested node's network
        stack if clients actually connect to the new node — DPU-side
        forwarding still burns the origin stack's cycles on every
        forwarded frame.  Run as a process alongside the load
        generator; polling the member list models client-side service
        discovery.
        """
        while True:
            yield self.env.timeout(_TOPOLOGY_POLL_S)
            for node in self.cluster.nodes:
                if (not node.retired
                        and node.name not in self._clients):
                    yield from self.connect_to(node.name)

    def target_for(self, shard: int, tag: int,
                   offset: Optional[int] = None) -> str:
        """Owner of ``shard``, or ``home`` for the stale fraction.

        ``offset`` (shard-relative) routes split shards to the half's
        owner — clients that don't pass it still land on the base
        owner, whose router forwards the upper half DPU-side.
        """
        if self.stale_fraction > 0.0:
            roll = stable_hash(f"stale:{self.name}:{tag}") % 10_000
            if roll < self.stale_fraction * 10_000:
                return self.home
        return self.cluster.shardmap.owner_of_shard(shard,
                                                    offset=offset)

    def submit(self, message: Buffer, shard: int, tag: int = 0,
               offset: Optional[int] = None):
        """Fire-and-record: send ``message`` toward ``shard``."""
        if self._stamp_deadline_s is not None:
            message = stamp_expiry(
                message, self.env.now + self._stamp_deadline_s)
        client = self._clients.get(
            self.target_for(shard, tag, offset=offset))
        if client is None:
            # Target we never connected to (retired node, or a fresh
            # autoscaled owner): fall back to the shard's live owner,
            # then to the first connected node by name — that node's
            # DPU router forwards the request to the real owner.
            client = self._clients.get(
                self.cluster.shardmap.owner_of_shard(shard,
                                                     offset=offset))
            if client is None:
                client = self._clients[min(self._clients)]
        request = client.submit(message)
        self.requests.append(request)
        self.request_meta.append((shard, self.env.now))
        if self._sli_answered is not None:
            request.done.callbacks.append(
                lambda _event, r=request: self._observe_sli(r))
        return request

    def _observe_sli(self, request) -> None:
        verdict = ("error" if request.failed
                   else classify(request.data))
        if verdict == "rejected":
            # Typed rejection with a retry-after hint: the admission
            # contract working, not unavailability.
            return
        self._sli_answered.add(1)
        if (verdict == "ok"
                and request.latency <= self._sli_deadline_s):
            self._sli_ontime.add(1)

    def outcomes(self,
                 deadline_s: Optional[float] = None) -> Dict[str, int]:
        """ok / error / pending counts over everything submitted.

        With ``deadline_s``, an ok response that completed later than
        ``deadline_s`` after submission counts as ``late`` instead of
        ``ok`` — the on-time goodput an SLO actually pays for (an
        open-loop overload answers everything *eventually*; lateness
        is how the collapse shows).
        """
        ok = errors = pending = late = 0
        for request in self.requests:
            if not request.completed:
                pending += 1
            elif request.failed or not response_ok(request.data):
                errors += 1
            elif (deadline_s is not None
                  and request.latency > deadline_s):
                late += 1
            else:
                ok += 1
        counts = {"ok": ok, "errors": errors, "pending": pending}
        if deadline_s is not None:
            counts["late"] = late
        return counts
