"""Distributed scatter-gather scans over a sharded DPDPU cluster.

Scan execution over a live deployment: a table is hash-partitioned
over the shards of a :class:`~repro.cluster.Cluster` (one node and one
shard is the single-node deployment — the same code, not a special
case), and a coordinator machine answers a
:class:`~repro.query.scan.ScanQuery` by consulting the
:class:`~repro.cluster.ShardMap`, scattering one sub-query per
populated shard to its owning node, and merging the partial results.

Each sub-query runs under one of the two familiar plans — chosen
**independently per shard** by :func:`plan_distributed`:

* ``pushdown`` — a precompiled scan sproc (filter/project/aggregate
  DP kernels over the shard's local file) executes on the owner's
  DPU Arm cores; only the selected bytes come back
  (:func:`repro.cluster.encode_shard_scan`);
* ``pull`` — the shard's raw partition ships to the coordinator
  (:func:`repro.cluster.encode_shard_read`) and the coordinator's
  host cores evaluate the predicate locally.

Misdirected sub-queries (a coordinator routing cache lagging the
shard map) ride the existing :class:`~repro.cluster.ShardRouter`
forwarding/deadline/breaker machinery — no query-layer plumbing.

Partial results merge under the decomposition rules of
:func:`merge_partials`: row sets concatenate; ``count`` and ``sum``
add; ``min``/``max`` fold over the non-empty partials.  Both plans
compute every per-shard partial over the same partition bytes in the
same row order, so their merged answers are *identical* — not merely
close — which the bench's identity part asserts at every node count.

Everything is deterministic: the partition of row index to shard uses
:func:`repro.cluster.stable_hash` (crc32, never a salted ``hash()``),
the cluster is seeded, and sub-queries are scattered in sorted shard
order, so ``--jobs N`` artifact runs stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..buffers import RealBuffer, split_records
from ..cluster import (Cluster, ClusterClient, encode_shard_read,
                       encode_shard_scan, response_ok)
from ..core.wire import json_body, parse_body
from ..errors import ClusterError
from ..sim import Environment
from ..units import Gbps, PAGE_SIZE
from ..workloads.tables import TableGenerator
from ..hardware.costs import DEFAULT_COSTS
from ..hardware.profiles import DpuProfile, HostProfile
from .planner import plan_scan
from .scan import QueryResult, ScanQuery

__all__ = ["DistributedScanDeployment", "merge_partials",
           "plan_distributed", "run_distributed_scan"]

#: host cores the coordinator spreads TCP ingest and pull evaluation
#: over, and Arm cores an owner scans its shards with, in the
#: cluster-aware wall-clock estimates
_COORDINATOR_CORES = 8
_NODE_SCAN_CORES = 6


# -- per-shard planning ------------------------------------------------------


def plan_distributed(query: ScanQuery,
                     shard_sizes: Dict[int, int],
                     n_columns: int,
                     dpu: DpuProfile, host: HostProfile,
                     network_bps: float = 100 * Gbps,
                     owners: Optional[Dict[int, str]] = None) -> dict:
    """Price both plans for every shard; choose independently.

    ``dpu`` is the owning nodes' DPU profile and ``host`` the
    coordinator's host profile; every clock the estimates divide by
    is theirs (:func:`plan_scan`).

    Scatter parallelism is per shard: one scan sproc occupies one Arm
    core on the owner, and one pull evaluation occupies one
    coordinator host core — hence one core a side when each shard is
    priced (unlike the single-node planner, which fans one big scan
    across a node's cores).

    The ``*_total_s`` fields are aggregate resource-seconds — the sum
    of per-shard estimate totals.  The scatter overlaps shards in
    wall-clock time, but the argmin per shard (and therefore the
    ``choices``) is unaffected by that overlap, and the totals
    decompose exactly: each total equals the sum of its per-shard
    network and compute components, which the tests pin.

    With ``owners`` (shard -> node name), the plan additionally goes
    **cluster-aware**: ``pull_wall_s`` / ``pushdown_wall_s`` estimate
    scatter wall clock under the shared resources the per-shard view
    cannot see — every pulled byte serializes through the single
    coordinator NIC and pays the coordinator's kernel-TCP ingest
    cycles (the Palladium observation), while pushdown compute
    spreads across the owning nodes' Arm cores and the slowest owner
    sets the pace.  ``cluster_choice`` is the argmin of the two wall
    estimates — the uniform plan to force when one side owns the
    regime.
    """
    costs = DEFAULT_COSTS
    per_shard = {}
    choices = {}
    pull_total_s = pushdown_total_s = chosen_total_s = 0.0
    pull_wire = pushdown_wire = 0.0
    for shard in sorted(shard_sizes):
        plan = plan_scan(query, shard_sizes[shard], n_columns, dpu,
                         host, network_bps=network_bps,
                         dpu_cores=1, host_cores=1)
        per_shard[shard] = plan
        choices[shard] = plan["choice"]
        pull_total_s += plan["pull"].total_s
        pushdown_total_s += plan["pushdown"].total_s
        chosen_total_s += plan[plan["choice"]].total_s
        pull_wire += plan["pull"].bytes_on_wire
        pushdown_wire += plan["pushdown"].bytes_on_wire
    plan = {
        "choices": choices,
        "per_shard": per_shard,
        "pull_total_s": pull_total_s,
        "pushdown_total_s": pushdown_total_s,
        "chosen_total_s": chosen_total_s,
        "pull_bytes_on_wire": pull_wire,
        "pushdown_bytes_on_wire": pushdown_wire,
    }
    plan.update(_cluster_wall(shard_sizes, per_shard, costs,
                              network_bps, owners or {},
                              dpu.arm_frequency_hz, host.frequency_hz))
    return plan


def _cluster_wall(shard_sizes, per_shard, costs, network_bps,
                  owners, dpu_hz, host_hz) -> dict:
    """Wall-clock estimates for the two *uniform* cluster plans.

    Pull concentrates: all table bytes serialize through the one
    coordinator NIC, and the coordinator's host cores pay kernel-TCP
    RX (per message + per byte) plus predicate evaluation for every
    shard — spread over ``_COORDINATOR_CORES``.  Pushdown spreads:
    each owner's Arm cores chew their own shards ``_NODE_SCAN_CORES``
    wide (the busiest owner is the critical path — consistent
    hashing is not perfectly balanced) and only the small results
    transit the coordinator stack.
    """
    software = costs.software
    bytes_per_s = network_bps / 8.0
    node_cycles: Dict[str, float] = {}
    pull_host_cycles = push_host_cycles = 0.0
    pull_bytes = push_bytes = 0.0
    for shard in sorted(shard_sizes):
        size = shard_sizes[shard]
        estimates = per_shard[shard]
        pull_bytes += size
        pull_host_cycles += (software.tcp_cycles_per_msg
                             + software.tcp_cycles_per_byte * size
                             + costs.cpu_cycles("filter", size,
                                                "host"))
        out_bytes = estimates["pushdown"].bytes_on_wire
        push_bytes += out_bytes
        push_host_cycles += (software.tcp_cycles_per_msg
                             + software.tcp_cycles_per_byte
                             * out_bytes)
        owner = owners.get(shard, "node")
        pages = -(-size // PAGE_SIZE)
        node_cycles[owner] = (
            node_cycles.get(owner, 0.0)
            + software.sproc_dispatch_cycles
            + software.dpu_file_service_cycles_per_op
            + software.spdk_cycles_per_page * pages
            + 2 * software.dpu_tcp_cycles_per_msg
            + software.dpu_tcp_cycles_per_byte * (size + out_bytes)
            + estimates["pushdown"].compute_s * dpu_hz)
    pull_wall_s = (pull_bytes / bytes_per_s
                   + pull_host_cycles / host_hz / _COORDINATOR_CORES)
    slowest_owner_s = (max(node_cycles.values()) / dpu_hz
                       / _NODE_SCAN_CORES
                       if node_cycles else 0.0)
    pushdown_wall_s = (slowest_owner_s
                       + push_bytes / bytes_per_s
                       + push_host_cycles / host_hz
                       / _COORDINATOR_CORES)
    return {
        "pull_wall_s": pull_wall_s,
        "pushdown_wall_s": pushdown_wall_s,
        "cluster_choice": ("pushdown"
                           if pushdown_wall_s <= pull_wall_s
                           else "pull"),
    }


# -- partial-aggregate decomposition -----------------------------------------


def merge_partials(query: ScanQuery, partials) -> QueryResult:
    """Fold per-shard partial results into the final answer.

    Decomposition rules (the ones that make per-shard execution
    legal): row sets concatenate, ``count`` and ``sum`` add, ``min``
    is the minimum over the non-empty partial minima and ``max`` the
    maximum over the partial maxima.  Empty partials (a shard where
    nothing passed the predicate) contribute count 0, sum 0.0, and no
    min/max — exactly what both the ``aggregate`` DP kernel and
    :meth:`ScanQuery.evaluate` produce for an empty input.
    """
    partials = list(partials)
    if query.is_aggregate:
        minima = [p.minimum for p in partials if p.minimum is not None]
        maxima = [p.maximum for p in partials if p.maximum is not None]
        return QueryResult(
            rows=None,
            count=sum(p.count for p in partials),
            total=sum(p.total for p in partials
                      if p.total is not None),
            minimum=min(minima) if minima else None,
            maximum=max(maxima) if maxima else None,
        )
    rows = []
    for partial in partials:
        rows.extend(partial.rows or [])
    return QueryResult(rows=rows, count=len(rows))


# -- the deployment ----------------------------------------------------------


class DistributedScanDeployment:
    """A hash-partitioned table served by an N-node DPDPU cluster."""

    def __init__(self, n_nodes: int = 4, n_rows: int = 2_000,
                 n_shards: int = 8, seed: int = 77,
                 port: int = 9400, stale_fraction: float = 0.0,
                 network_bps: float = 100 * Gbps):
        self.env = Environment()
        self.network_bps = network_bps
        self.cluster = Cluster(self.env, n_nodes,
                               n_shards=n_shards, port=port,
                               network_bps=network_bps)
        self.generator = TableGenerator(seed=seed)
        self.schema = self.generator.schema
        self.n_rows = n_rows
        self.table_bytes = self.generator.rows(n_rows)
        # Hash-partition rows to shards with the same crc32 the shard
        # map uses for keys — deterministic across processes.
        shardmap = self.cluster.shardmap
        buckets: Dict[int, list] = {}
        rows = [r for r in self.table_bytes.split(b"\n") if r]
        for index, row in enumerate(rows):
            buckets.setdefault(shardmap.shard_of(index),
                               []).append(row)
        self.partitions: Dict[int, bytes] = {
            shard: b"\n".join(bucket) + b"\n"
            for shard, bucket in buckets.items()
        }
        oversize = [shard for shard, data in self.partitions.items()
                    if len(data) > self.cluster.shard_bytes]
        if oversize:
            raise ValueError(
                f"partitions {sorted(oversize)} exceed the "
                f"{self.cluster.shard_bytes}-byte shard files; "
                "use more shards or fewer rows")
        self.coordinator = ClusterClient(
            self.cluster, "coordinator", home="node0",
            stale_fraction=stale_fraction)
        self._loaded = False
        #: scans registered so far, the id in their sproc names: the
        #: deployment's own count, four digits wide on the wire, so a
        #: scan's bytes do not depend on how many ran before it
        self._scans = 0

    def shard_sizes(self) -> Dict[int, int]:
        """Bytes of table data living in each populated shard."""
        return {shard: len(data)
                for shard, data in self.partitions.items()}

    def owners(self) -> Dict[int, str]:
        """Owning node of every populated shard (live shard map)."""
        return {shard: self.cluster.shardmap.owner_of_shard(shard)
                for shard in self.partitions}

    def plan(self, query: ScanQuery) -> dict:
        """The cluster-aware plan for ``query`` on this deployment:
        per-shard choices priced at the deployment's actual fabric
        speed, shard placement, node DPU and coordinator host."""
        return plan_distributed(query, self.shard_sizes(),
                                len(self.schema.columns),
                                self.cluster.nodes[0].server.dpu.profile,
                                self.coordinator.server.host_profile,
                                network_bps=self.network_bps,
                                owners=self.owners())

    def load(self) -> None:
        """Write every partition to its owner (device-timed) and
        connect the coordinator to all nodes."""
        if self._loaded:
            return

        def setup():
            yield from self.coordinator.connect_all()
            pending = []
            for shard in sorted(self.partitions):
                owner = self.cluster.shardmap.owner_of_shard(shard)
                node = self.cluster.node(owner)
                pending.append(node.runtime.storage.write(
                    node.shard_files[shard], 0,
                    RealBuffer(self.partitions[shard])))
            for request in pending:
                yield request.done

        self.env.run(until=self.env.process(setup()))
        self._loaded = True

    def register_scan_sprocs(self,
                             query: ScanQuery) -> Dict[int, str]:
        """Register the per-shard pushdown sprocs on **every** node.

        Each node's closure reads its *local* shard file, so the
        sproc is correct wherever the shard-aware server executes it
        — and forwarding guarantees that is always the owner.
        Returns shard -> sproc name.
        """
        self._scans += 1
        schema = self.schema
        predicate_index = schema.index_of(query.predicate_column)
        names: Dict[int, str] = {}
        for shard in sorted(self.partitions):
            name = f"scan{self._scans:04d}_s{shard}"
            names[shard] = name
            length = len(self.partitions[shard])
            for node in self.cluster.nodes:
                node.runtime.compute.register_sproc(
                    name, _make_scan_sproc(
                        query, schema, predicate_index,
                        node.shard_files[shard], length))
        return names


def _make_scan_sproc(query: ScanQuery, schema, predicate_index: int,
                     file_id: int, length: int):
    """One shard's scan pipeline as a sproc generator function.

    Every kernel is *specified* onto ``dpu_cpu`` — the pushdown
    contract is compute-next-to-the-data on the owner's Arm cores.
    Scheduled execution would happily ship the raw shard over PCIe to
    the faster host cores, which re-burns exactly the host cycles
    pushdown exists to save.
    """

    def scan_sproc(ctx, arg):
        data = yield from ctx.wait(
            ctx.se.read(file_id, 0, length))
        filtered = yield from ctx.wait(ctx.dpk("filter")(
            data, "dpu_cpu", params={"column": predicate_index,
                                     "predicate": query.predicate},
        ))
        if query.is_aggregate:
            aggregate_index = schema.index_of(query.aggregate_column)
            aggregate_request = ctx.dpk("aggregate")(
                filtered, "dpu_cpu", params={"column": aggregate_index,
                                             "extract": float},
            )
            yield from ctx.wait(aggregate_request)
            return json_body(aggregate_request.meta)
        if query.projection:
            indices = [schema.index_of(column)
                       for column in query.projection]
            projected = yield from ctx.wait(ctx.dpk("project")(
                filtered, "dpu_cpu", params={"columns": indices},
            ))
            return projected
        return filtered

    return scan_sproc


def _decode_pushdown(buffer, query: ScanQuery) -> QueryResult:
    """A scan sproc's response as this shard's partial result."""
    if query.is_aggregate:
        meta = parse_body(buffer)
        return QueryResult(
            rows=None, count=meta["count"], total=meta["sum"],
            minimum=meta["min"], maximum=meta["max"],
        )
    rows = list(split_records(buffer.data, b"\n"))
    return QueryResult(rows=rows, count=len(rows))


# -- execution ---------------------------------------------------------------


#: max concurrent pushdown sub-queries per owning node.  A scan
#: sproc holds one dedicated Arm core for its whole life (the
#: run-to-completion actor model of :mod:`repro.core.scheduler`) and
#: its pinned ``dpu_cpu`` kernels need a *second* core from the same
#: pool — so an unbounded scatter onto a node owning >= 8 shards
#: core-starves itself.  The coordinator windows its fan-out per
#: node instead, like any real scatter-gather engine.
FANOUT_WINDOW = 4


def run_distributed_scan(deployment: DistributedScanDeployment,
                         query: ScanQuery,
                         plan: Optional[str] = None) -> dict:
    """Scatter ``query`` over the cluster, gather, merge; with stats.

    ``plan`` forces "pull" or "pushdown" on every shard; ``None``
    lets :func:`plan_distributed` choose per shard.
    """
    query.validate_against(deployment.schema)
    deployment.load()
    if plan is None:
        choices = deployment.plan(query)["choices"]
    elif plan in ("pull", "pushdown"):
        choices = {shard: plan
                   for shard in deployment.partitions}
    else:
        raise ValueError(f"unknown plan {plan!r}")

    sprocs = {}
    if any(choice == "pushdown" for choice in choices.values()):
        sprocs = deployment.register_scan_sprocs(query)

    env = deployment.env
    cluster = deployment.cluster
    coordinator = deployment.coordinator
    partials: Dict[int, QueryResult] = {}
    costs = coordinator.server.costs
    host_cpus = ([coordinator.server.host_cpu]
                 + [node.server.host_cpu for node in cluster.nodes])
    dpu_cpus = [node.server.dpu.cpu for node in cluster.nodes]
    host_busy_before = sum(cpu.busy_seconds() for cpu in host_cpus)
    dpu_busy_before = sum(cpu.busy_seconds() for cpu in dpu_cpus)
    rx_before = coordinator.server.nic.rx_bytes.value
    forwards_before = sum(node.router.forwards.value
                          for node in cluster.nodes)
    requests_before = len(coordinator.requests)
    started = env.now

    def sub_query(shard):
        if choices[shard] == "pushdown":
            message = encode_shard_scan(shard, sprocs[shard])
        else:
            message = encode_shard_read(
                shard, 0, size=len(deployment.partitions[shard]))
        request = coordinator.submit(message, shard, tag=shard)
        buffer = yield request.done
        if not response_ok(buffer):
            raise ClusterError(
                f"sub-query on shard {shard} failed: "
                f"{buffer.data[:200]!r}")
        if choices[shard] == "pushdown":
            partials[shard] = _decode_pushdown(buffer, query)
        else:
            raw = buffer.data
            # Coordinator-side evaluation burns host cycles, same
            # cost identity as the single-node pull path.
            cycles = costs.cpu_cycles("filter", len(raw), "host")
            yield from coordinator.server.host_cpu.execute(cycles)
            partials[shard] = query.evaluate(raw, deployment.schema)

    owners = deployment.owners()

    def windowed_scatter(shards):
        # FIFO window: wait for the oldest in-flight sub-query
        # before launching the next — deterministic, and it bounds
        # how many core-holding sprocs one node ever runs at once.
        pending = []
        for shard in shards:
            if len(pending) >= FANOUT_WINDOW:
                yield pending.pop(0)
            pending.append(env.process(sub_query(shard)))
        for process in pending:
            yield process

    def scatter_gather():
        # Pull sub-queries hold no Arm cores, so they scatter all at
        # once; pushdown sub-queries are windowed per *owning* node
        # (forwarding means the owner executes even a misdirected
        # scan, so the owner is the right throttling key).
        processes = [
            env.process(sub_query(shard))
            for shard in sorted(deployment.partitions)
            if choices[shard] == "pull"
        ]
        by_owner: Dict[str, list] = {}
        for shard in sorted(deployment.partitions):
            if choices[shard] == "pushdown":
                by_owner.setdefault(owners[shard], []).append(shard)
        processes += [
            env.process(windowed_scatter(shards),
                        name=f"scatter-{owner}")
            for owner, shards in sorted(by_owner.items())
        ]
        if processes:
            yield env.all_of(processes)

    env.run(until=env.process(scatter_gather()))

    # Every sub-query was answered (a ClusterError would have raised),
    # so nothing is in flight: drop the responses the client kept for
    # ``outcomes()`` and this query's sprocs.  The stats are the record.
    del coordinator.requests[requests_before:]
    del coordinator.request_meta[requests_before:]
    for name in sprocs.values():
        for node in cluster.nodes:
            node.runtime.compute.unregister_sproc(name)

    merged = merge_partials(
        query, [partials[shard]
                for shard in sorted(deployment.partitions)])
    return {
        "plan": plan or "auto",
        "choices": choices,
        "result": merged,
        "elapsed_s": env.now - started,
        "bytes_received": (coordinator.server.nic.rx_bytes.value
                           - rx_before),
        "host_busy_s": (sum(cpu.busy_seconds()
                            for cpu in host_cpus)
                        - host_busy_before),
        "dpu_busy_s": (sum(cpu.busy_seconds() for cpu in dpu_cpus)
                       - dpu_busy_before),
        "forwards": (sum(node.router.forwards.value
                         for node in cluster.nodes)
                     - forwards_before),
    }
