"""Shard-aware DDS serving and DPU-side request forwarding.

Two pieces live here:

* :class:`ShardRouter` — each node keeps a DDS client to every peer,
  connected over its **DPU** TCP stack.  When a request arrives at
  the wrong node (a client's routing cache lagged the shard map), the
  DPU re-parses the header, looks up the owner and re-transmits the
  original message — the host never sees the detour, which is the
  cluster extension of the paper's Q2 answer (traffic splitting
  happens on the DPU).
* :class:`ClusterDdsServer` — a :class:`~repro.core.dds.DdsServer`
  that understands ``shard``-addressed requests on top of the stock
  ``file_id`` ones.  Local shards execute on the DPU path; when the
  node's Arm cluster is unhealthy (circuit breaker open) the request
  degrades to the host-served SE ring, which survives a crashed DPU
  because its reactor core was claimed at boot.  Remote shards are
  forwarded via the router.

Every request that reaches :meth:`ClusterDdsServer._handle` posts
exactly one response for its sequence number — including routing
timeouts, which post a JSON error body — because the per-connection
:class:`OrderedResponder` wedges permanently on a gap.
"""

from __future__ import annotations

from typing import Dict

from ..buffers import Buffer, SynthBuffer
from ..errors import (AdmissionRejected, ClusterError,
                      DeadlineExceededError, OffloadRejected,
                      ReproError)
from ..obs.trace import TraceContext
from ..sim.stats import Counter, Tally
from ..units import PAGE_SIZE
from ..core.admission import ADMISSION_CYCLES
from ..core.dds import DdsClient, DdsServer
from ..core.requests import wait
from ..core.wire import ACK, error_body, with_trace_context
from .sharding import SHARD_BYTES

__all__ = ["ClusterDdsServer", "ShardRouter"]

#: how long a forwarded request may wait on the peer before the
#: router gives up and the origin node answers with an error body
FORWARD_DEADLINE_S = 2.5e-3

#: budget for the degraded host-ring path on a local shard
FALLBACK_DEADLINE_S = 2.0e-3

#: Arm cycles the owner lookup + re-transmit decision costs per forward
ROUTE_CYCLES = 300.0

#: budget for (re)connecting to a peer's DDS port
CONNECT_TIMEOUT_S = 2.0e-3


# -- DPU-side forwarding -----------------------------------------------------------


class ShardRouter:
    """Forwards misdirected shard requests to their owner, DPU-side."""

    def __init__(self, env, node_name: str, network, port: int):
        self.env = env
        self.node_name = node_name
        self.network = network
        self.port = port
        self.forwards = Counter(f"router.{node_name}.forwards")
        self.forward_failures = Counter(
            f"router.{node_name}.forward_failures")
        self.forward_latency = Tally(
            f"router.{node_name}.forward_latency")
        self._clients: Dict[str, DdsClient] = {}
        #: owner -> gate event while a connection is being established
        self._connecting: Dict[str, object] = {}

    def forward(self, owner: str, message: Buffer):
        """Re-transmit ``message`` to ``owner``; return its response.

        Runs entirely on the DPU: the routing decision costs a few
        hundred Arm cycles, then the message goes back out through
        the DPU TCP stack.  Raises :class:`ClusterError` when the
        owner does not answer within the forwarding deadline.
        """
        # The lookup + re-transmit decision runs on the DPU cores;
        # if the local Arm cluster is down this raises and the caller
        # answers with an error body (nothing host-side to fall to —
        # the request itself only exists on the DPU).
        yield from self.network.dpu.cpu.execute(ROUTE_CYCLES)
        started = self.env.now
        client = yield from self._peer(owner)
        request = client.submit(message)
        try:
            response = yield from wait(
                request, timeout_s=FORWARD_DEADLINE_S)
        except DeadlineExceededError:
            self.forward_failures.add(1)
            raise ClusterError(
                f"forward {self.node_name} -> {owner} timed out "
                f"after {FORWARD_DEADLINE_S:g}s")
        self.forwards.add(1)
        self.forward_latency.observe(self.env.now - started)
        return response

    def _peer(self, owner: str):
        """The cached DDS client for ``owner`` (connect on first use).

        Concurrent first uses are serialized behind a gate event so
        only one SYN goes out per peer; the gate is always succeeded
        (never failed) — losers re-check the cache and, if the winner
        failed to connect, attempt their own connection.
        """
        while True:
            client = self._clients.get(owner)
            if client is not None:
                return client
            gate = self._connecting.get(owner)
            if gate is None:
                break
            yield gate
        gate = self.env.event()
        self._connecting[owner] = gate
        try:
            connection = yield from self.network.tcp.connect(
                self.port, remote=owner,
                timeout_s=CONNECT_TIMEOUT_S)
            self._clients[owner] = DdsClient(
                connection, name=f"route.{self.node_name}->{owner}")
        finally:
            del self._connecting[owner]
            if not gate.triggered:
                gate.succeed(None)
        return self._clients[owner]


# -- the shard-aware server --------------------------------------------------------


class ClusterDdsServer(DdsServer):
    """A DDS server that owns shards and routes the ones it doesn't."""

    def __init__(self, runtime, port: int, node_name: str,
                 shardmap, shard_files: Dict[int, int],
                 router: ShardRouter, breaker):
        super().__init__(runtime, port, name=f"dds.{node_name}")
        self.node_name = node_name
        self.shardmap = shardmap
        self.shard_files = shard_files
        self.router = router
        self.breaker = breaker
        #: an AdmissionController guarding this ingress (None = open
        #: door — the pre-protection data path, byte-identical)
        self.admission = None
        self.shard_local = Counter(f"{self.name}.shard_local")
        self.shard_routed = Counter(f"{self.name}.shard_routed")
        self.shard_errors = Counter(f"{self.name}.shard_errors")
        self.shard_failovers = Counter(f"{self.name}.shard_failovers")
        self.shard_rejections = Counter(f"{self.name}.shard_rejections")
        #: end-to-end request service time on this node (the telemetry
        #: plane reads p50/p99 from here each scrape window)
        self.request_latency = Tally(f"{self.name}.request_latency",
                                     max_samples=512)
        self._shard_ops: Dict[int, Counter] = {}
        telemetry = getattr(runtime, "telemetry", None)
        self._registry = (telemetry.metrics if telemetry is not None
                          else None)
        if self._registry is not None:
            self._registry.register(f"{self.name}.shard_local",
                                    self.shard_local)
            self._registry.register(f"{self.name}.shard_routed",
                                    self.shard_routed)
            self._registry.register(f"{self.name}.shard_errors",
                                    self.shard_errors)
            self._registry.register(f"{self.name}.shard_failovers",
                                    self.shard_failovers)
            self._registry.register(f"{self.name}.shard_rejections",
                                    self.shard_rejections)
            self._registry.register(f"{self.name}.request_latency",
                                    self.request_latency)

    def _shard_counter(self, shard: int) -> Counter:
        """Per-shard op counter, created (and registered) lazily."""
        counter = self._shard_ops.get(shard)
        if counter is None:
            counter = Counter(f"{self.name}.shard{shard}.ops")
            self._shard_ops[shard] = counter
            if self._registry is not None:
                self._registry.register(
                    f"{self.name}.shard{shard}.ops", counter)
        return counter

    def _handle(self, message: Buffer, sequence: int, ordered):
        started = self.env.now
        with self.tracer.span("dds.request", category="network",
                              sequence=sequence,
                              bytes=message.size) as root:
            # UDF parsing normally runs on a DPU core; with the Arm
            # cluster crashed it degrades to the host cores (the
            # breaker's failover rule is already steering frames
            # there).
            try:
                with self.tracer.span("dds.udf_parse",
                                      category="compute"):
                    yield from self.se.dpu.cpu.execute(
                        self.costs.udf_parse_cycles)
            except ReproError:
                self.breaker.record_failure()
                yield from self.server.host_cpu.execute(
                    self.costs.udf_parse_cycles)
            request = self.udf(message)
            if self.tracer.enabled and isinstance(request, dict):
                # A request that already crossed a node boundary
                # carries its trace context in the envelope; adopt
                # it so this node's tree hangs under the sender's.
                remote = TraceContext.from_wire(request.get("trace"))
                if remote is not None:
                    self.tracer.adopt(root, remote)
            shard = (request.get("shard")
                     if isinstance(request, dict) else None)
            if shard is None:
                # Stock DdsServer behaviour for file-addressed ops.
                response = yield from self._dispatch(request, message,
                                                     started, root)
                self.request_latency.observe(self.env.now - started)
                ordered.post(sequence, response)
                return
            ticket = None
            if self.admission is not None:
                # The whole point of ingress admission: the decision
                # costs a bounded handful of Arm cycles, and a
                # rejected request is answered without touching the
                # storage path, the router, or the host ring.
                with self.tracer.span("dds.admission",
                                      category="compute",
                                      shard=shard) as gate:
                    try:
                        yield from self.se.dpu.cpu.execute(
                            ADMISSION_CYCLES)
                    except ReproError:
                        yield from self.server.host_cpu.execute(
                            ADMISSION_CYCLES)
                    deadline_s = request.get("deadline_s")
                    expires_s = request.get("expires_s")
                    if expires_s is not None:
                        # Propagated absolute deadline: remaining
                        # budget shrinks with request *age*, so
                        # admission sheds work already doomed by
                        # queueing upstream of this node — queues a
                        # server-side latency signal never sees.
                        deadline_s = expires_s - self.env.now
                    try:
                        ticket = self.admission.admit(
                            request.get("tenant"),
                            deadline_s=deadline_s)
                    except AdmissionRejected as exc:
                        self.shard_rejections.add(1)
                        reason = exc.reason
                        gate.annotate(verdict="rejected",
                                      reason=reason)
                        root.annotate(path="rejected", shard=shard,
                                      reason=reason)
                        ordered.post(sequence, error_body(
                            exc, reason=reason,
                            retry_after_s=exc.retry_after_s))
                        return
                    gate.annotate(verdict="admitted")
            try:
                response = yield from self._serve_shard(
                    request, message, root)
            except ReproError as exc:
                self.shard_errors.add(1)
                root.annotate(path="error",
                              error=type(exc).__name__)
                response = error_body(exc)
            finally:
                if ticket is not None:
                    ticket.release()
            self.request_latency.observe(self.env.now - started)
            ordered.post(sequence, response)

    def _serve_shard(self, request: Dict, message: Buffer, root):
        shard = request["shard"]
        if (not isinstance(shard, int)
                or not 0 <= shard < self.shardmap.n_shards):
            raise ClusterError(f"unknown shard {shard!r}")
        kind = request.get("type")
        if kind not in ("read", "write", "scan"):
            raise ClusterError(
                f"shard requests must be read/write/scan, "
                f"got {kind!r}")
        self._shard_counter(shard).add(1)
        # Shard-relative offset decides the owner for split shards.
        relative = int(request.get("offset", 0)) % SHARD_BYTES
        owner = self.shardmap.owner_of_shard(shard, offset=relative)
        if owner != self.node_name:
            self.shard_routed.add(1)
            root.annotate(path="routed", shard=shard, owner=owner)
            with self.tracer.span("cluster.route", category="network",
                                  shard=shard, owner=owner) as hop:
                # Forward the original message — with the trace
                # context stitched into its envelope (same size, so
                # the owner's costs don't change) so the owner's tree
                # hangs under this hop in the merged cluster trace.
                out = message
                if self.tracer.enabled:
                    out = with_trace_context(
                        message, self.tracer.context_for(hop))
                return (yield from self.router.forward(owner, out))
        self.shard_local.add(1)
        root.annotate(path="local", shard=shard)
        if kind == "scan":
            return (yield from self._serve_scan(request, shard))
        local = self._translate(request, shard, kind)
        if self.breaker.allow():
            try:
                with self.tracer.span("cluster.shard_dpu",
                                      category="storage",
                                      shard=shard, op=kind):
                    response = yield from self._execute_on_dpu(local)
            except OffloadRejected:
                pass
            except ReproError:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
                return response
        else:
            self.shard_failovers.add(1)
        # Degraded path: the host-served SE ring keeps shards
        # available while the Arm cluster is down.
        with self.tracer.span("cluster.shard_host",
                              category="storage",
                              shard=shard, op=kind):
            if kind == "read":
                pending = self.se.read(local["file_id"],
                                       local["offset"],
                                       local["size"])
            else:
                pending = self.se.write(
                    local["file_id"], local["offset"],
                    SynthBuffer(local["size"],
                                label=f"w{local['offset']}"))
            data = yield from wait(
                pending, timeout_s=FALLBACK_DEADLINE_S)
        if kind == "read":
            return data if isinstance(data, Buffer) else ACK
        return ACK

    def _serve_scan(self, request: Dict, shard: int):
        """Run a registered scan sproc next to this node's shard file.

        Pushdown needs the Arm cores — there is no host-ring analogue
        of a DP-kernel pipeline — so a tripped breaker surfaces as a
        typed error body for the coordinator to re-plan around, not a
        degraded host path.
        """
        if not self.breaker.allow():
            self.shard_failovers.add(1)
            raise ClusterError(
                f"scan on shard {shard} unavailable: "
                f"{self.node_name}'s Arm cluster is down")
        name = request.get("sproc")
        with self.tracer.span("cluster.shard_scan",
                              category="compute",
                              shard=shard, sproc=name):
            try:
                response = yield from self._invoke_sproc(
                    name, request.get("arg"))
            except ReproError:
                self.breaker.record_failure()
                raise
        self.breaker.record_success()
        return response

    def _translate(self, request: Dict, shard: int,
                   kind: str) -> Dict:
        """Shard-relative request -> file operation on this node."""
        size = int(request.get("size", PAGE_SIZE))
        offset = int(request.get("offset", 0)) % SHARD_BYTES
        if offset + size > SHARD_BYTES:
            raise ClusterError(
                f"op [{offset}, {offset + size}) overruns shard of "
                f"{SHARD_BYTES} bytes")
        return {"type": kind, "file_id": self.shard_files[shard],
                "offset": offset, "size": size}
