"""Failure detection and shard migration off a dead DPU.

Detection is probe-based: the data path on a crashed node cannot
report its own failures (the DPU TCP stack simply stalls, so requests
never reach the breaker), so the :class:`Rebalancer` pokes every
node's Arm cluster on a fixed cadence and feeds the results into the
node's :class:`~repro.faults.recovery.CircuitBreaker` — the same one
:meth:`TrafficDirector.protect` wired to the NIC flow table.  When a
breaker opens, two things happen at once:

* the TrafficDirector's failover rule steers **all** ingress frames
  to the host — which is exactly what makes the failed node's
  host-side :class:`MigrationService` listener reachable while its
  DPU is dead;
* the rebalancer computes :meth:`ShardMap.plan_without` (only the
  failed node's shards move — consistent hashing's minimal-movement
  property) and starts one puller per destination node.

Each destination's **host** kernel stack (the same one its own
exporter listens on — the migration-port flow rule steers these
frames to the host at both ends) connects to the failed node's host
kernel stack and pulls shards one at a time; the exporter reads
pages back through the SE's host ring (the reactor core was claimed
at boot, so the ring survives a crashed Arm cluster) and ships them
as one message per shard.  The moment a shard's pages land on the new
owner, :meth:`ShardMap.set_override` cuts just that shard over, so
routing recovers shard by shard rather than when the whole drain
finishes.
"""

from __future__ import annotations

from typing import Dict, List

from ..baselines.host_tcp import make_kernel_tcp
from ..buffers import SynthBuffer
from ..core.wire import (default_udf, encode_shard_pull, json_body,
                         with_trace_context)
from ..errors import MigrationStalledError, ReproError
from ..obs.trace import TraceContext
from ..sim.stats import Counter
from ..units import PAGE_SIZE
from .router import CONNECT_TIMEOUT_S
from .sharding import SHARD_BYTES

__all__ = ["MigrationService", "Rebalancer"]

#: host cycles to locate a shard's pages and set up the export
EXPORT_CYCLES = 2_000.0

#: how long one shard's payload may take before the pull is declared
#: stalled and retried on a fresh connection (an abandoned receive
#: leaves a dangling store get, so the old connection is unusable)
PULL_DEADLINE_S = 4.0e-3

#: fresh-connection retries per shard before the drain gives up
PULL_RETRY_BUDGET = 2

#: health-probe period per node, and the Arm cycles one probe burns
PROBE_INTERVAL_S = 1.5e-4
PROBE_CYCLES = 400.0


class MigrationService:
    """Host-side shard exporter on one node.

    Listens on the cluster's migration port with a **kernel** TCP
    stack (host cores, host rx queue): during normal operation the
    flow table never steers traffic there, and after a DPU failure
    the breaker's failover rule delivers every frame to it.
    """

    def __init__(self, node, port: int):
        self.node = node
        self.env = node.server.env
        self.port = port
        self.stack = make_kernel_tcp(node.server,
                                     name=f"{node.name}.mig")
        self.exports = Counter(f"mig.{node.name}.exports")
        self.exported_bytes = Counter(f"mig.{node.name}.bytes")
        self.export_errors = Counter(f"mig.{node.name}.errors")
        self.env.process(self._accept_loop(),
                         name=f"{node.name}-mig-accept")

    def _accept_loop(self):
        listener = self.stack.listen(self.port)
        while True:
            connection = yield listener.accept()
            self.env.process(self._serve(connection),
                             name=f"{self.node.name}-mig-conn")

    def _serve(self, connection):
        se = self.node.runtime.storage
        host_cpu = self.node.server.host_cpu
        while True:
            message = yield connection.recv_message()
            request = default_udf(message)
            if (not request
                    or request.get("type") != "migrate_shard"
                    or request.get("shard")
                    not in self.node.shard_files):
                self.export_errors.add(1)
                yield from connection.send_message(
                    json_body({"error": "bad migrate request"}))
                continue
            shard = request["shard"]
            file_id = self.node.shard_files[shard]
            tracer = self.node.runtime.telemetry.tracer
            with tracer.span("mig.export", category="storage",
                             shard=shard) as span:
                if tracer.enabled:
                    # A puller's trace context rides in the request
                    # envelope; adopting it hangs this export under
                    # the destination node's pull span.
                    tracer.adopt(span, TraceContext.from_wire(
                        request.get("trace")))
                yield from host_cpu.execute(EXPORT_CYCLES)
                reads = [se.read(file_id, offset, PAGE_SIZE)
                         for offset in range(0, SHARD_BYTES, PAGE_SIZE)]
                try:
                    yield self.env.all_of([r.done for r in reads])
                except ReproError:
                    # Page reads are the host ring path and survive
                    # DPU crashes; if one still fails (injected SSD
                    # fault) the shard ships anyway — bytes are
                    # synthetic, and a wedged puller would strand
                    # every later shard.
                    self.export_errors.add(1)
                payload = SynthBuffer(SHARD_BYTES,
                                      label=f"shard{shard}")
                yield from connection.send_message(payload)
            self.exports.add(1)
            self.exported_bytes.add(SHARD_BYTES)


class Rebalancer:
    """Probes every node's DPU and drains the ones that fail."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.migrated_shards = Counter("rebalance.shards")
        self.migrated_bytes = Counter("rebalance.bytes")
        #: shard -> sim time its override landed
        self.cutover_times: Dict[int, float] = {}
        self._draining = set()
        for node in cluster.nodes:
            self.env.process(self._probe_loop(node),
                             name=f"probe-{node.name}")

    def _probe_loop(self, node):
        while True:
            yield self.env.timeout(PROBE_INTERVAL_S)
            if node.retired:
                return
            try:
                yield from node.server.dpu.cpu.execute(PROBE_CYCLES)
            except ReproError:
                node.breaker.record_failure()
            else:
                node.breaker.record_success()
                continue
            if (not node.breaker.allow()
                    and node.name not in self._draining
                    and len(self.cluster.shardmap.nodes) > 1):
                self._draining.add(node.name)
                self.env.process(self._drain(node),
                                 name=f"drain-{node.name}")

    @property
    def draining(self) -> frozenset:
        """Names of nodes currently being drained (failed or retiring).

        A draining node still answers probes for ring membership until
        its last cutover lands, but its capacity is already spoken
        for — autoscalers should not count it toward the healthy
        floor.
        """
        return frozenset(self._draining)

    def watch(self, node) -> None:
        """Start probing a node added after construction (autoscale)."""
        self.env.process(self._probe_loop(node),
                         name=f"probe-{node.name}")

    def drain(self, node):
        """Live-drain a (healthy or failed) node: generator.

        The autoscaler's scale-down path: every shard moves off
        ``node`` through the same pull protocol the failure path
        uses — the migration port is reachable on a healthy node
        because unmatched frames deliver to the host by default — and
        the node retires once the last cutover lands.
        """
        if node.name in self._draining:
            return
        self._draining.add(node.name)
        yield from self._drain(node)

    def pull(self, source, dest, shards, status=None, cutover=None):
        """Pull ``shards`` from ``source`` onto ``dest``: generator.

        The building block the autoscaler composes: live rebalancing
        onto a joined node and hot-shard splits (via ``cutover``) use
        the same deadline-guarded transfer as failure drains.
        """
        yield from self._pull(source, dest, shards,
                              status if status is not None
                              else {"failed": 0}, cutover)

    def _drain(self, failed):
        """Move every shard off ``failed``, then retire it."""
        shardmap = self.cluster.shardmap
        plan = shardmap.plan_without(failed.name)
        by_dest: Dict[str, List[int]] = {}
        for shard, dest in sorted(plan.items()):
            by_dest.setdefault(dest, []).append(shard)
        status = {"failed": 0}
        pullers = [
            self.env.process(
                self._pull(failed, self.cluster.node(dest), shards,
                           status),
                name=f"pull-{dest}<-{failed.name}")
            for dest, shards in sorted(by_dest.items())
        ]
        yield self.env.all_of(pullers)
        if status["failed"] == 0:
            # Ring ownership without the node now matches every
            # override, so removal drops them all in one step.
            shardmap.remove_node(failed.name)
            failed.retired = True

    def _pull(self, source, dest, shards, status, cutover=None):
        """One destination pulls its assigned shards, sequentially.

        Each shard's transfer is bounded by :data:`PULL_DEADLINE_S`.  A
        stalled export cannot be salvaged on the same connection —
        the abandoned receive leaves a dangling store get that would
        swallow the next payload — so every retry reconnects fresh,
        up to :data:`PULL_RETRY_BUDGET` times per shard before the drain
        is declared failed with :class:`MigrationStalledError`.
        """
        if cutover is None:
            def cutover(shard):
                self.cluster.shardmap.set_override(shard, dest.name)
        try:
            # Migration rides the host kernel path end-to-end: the
            # migration-port flow rule steers these frames to the
            # host on *both* ends, so pulls work whether the source's
            # DPU is dead (failure drain) or alive (live drain, join,
            # hot-shard split).
            stack = self.cluster.migration_services[dest.name].stack
            connection = yield from stack.connect(
                self.cluster.migration_port, remote=source.name,
                timeout_s=CONNECT_TIMEOUT_S)
            se = dest.runtime.storage
            tracer = dest.runtime.telemetry.tracer
            for shard in shards:
                with tracer.span("rebalance.pull", category="network",
                                 shard=shard,
                                 source=source.name) as pull:
                    connection, payload = yield from \
                        self._pull_shard(source, dest, connection,
                                         shard, tracer, pull)
                    file_id = dest.shard_files[shard]
                    writes = [
                        self.env.process(
                            self._write_page(se, file_id, offset))
                        for offset in range(0, payload.size, PAGE_SIZE)
                    ]
                    if writes:
                        yield self.env.all_of(writes)
                    cutover(shard)
                    self.migrated_shards.add(1)
                    self.migrated_bytes.add(payload.size)
                    self.cutover_times[shard] = self.env.now
        except ReproError:
            status["failed"] += 1

    def _pull_shard(self, source, dest, connection, shard, tracer,
                    pull):
        """One shard's transfer with the deadline/retry envelope.

        Returns ``(connection, payload)`` — the connection may be a
        fresh one if an attempt stalled.
        """
        attempts = 0
        while True:
            attempts += 1
            request = encode_shard_pull(shard)
            if tracer.enabled:
                # Ship the pull's context so the exporter's
                # mig.export span joins this trace.
                request = with_trace_context(
                    request, tracer.context_for(pull))
            yield from connection.send_message(request)
            receive = connection.recv_message()
            expiry = self.env.timeout(PULL_DEADLINE_S)
            yield self.env.any_of([receive, expiry])
            if receive.triggered:
                return connection, receive.value
            pull.annotate(stalled_attempt=attempts)
            if attempts > PULL_RETRY_BUDGET:
                raise MigrationStalledError(
                    f"shard {shard} pull from {source.name} stalled "
                    f"{attempts} times (deadline "
                    f"{PULL_DEADLINE_S:g}s)",
                    shard=shard, attempts=attempts)
            stack = self.cluster.migration_services[dest.name].stack
            connection = yield from stack.connect(
                self.cluster.migration_port, remote=source.name,
                timeout_s=CONNECT_TIMEOUT_S)

    def _write_page(self, se, file_id: int, offset: int):
        yield from se.dpu_write(file_id, offset,
                                SynthBuffer(PAGE_SIZE))
