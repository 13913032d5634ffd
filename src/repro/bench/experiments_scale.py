"""SC: multi-node scale-out — goodput, host cores, and TCO vs N.

The Figure-9 argument extended to a cluster: if one DPU-equipped node
saves host cores at a fixed request rate, N of them serving sharded
tenants should save N× the cores — *provided* the sharding layer
doesn't reintroduce host work.  The cluster router forwards
misdirected requests DPU-side, so the claim to verify is that
per-node host cores stay flat while goodput scales.

Parts:

* ``goodput`` — weak-scaling sweep over node count (1/2/4/8) at a
  fixed per-node offered rate; reports goodput, speedup vs one node,
  total/per-node host cores, and the DPU-routed fraction.
* ``tco`` — dollars/hour of an N-node DDS cluster vs an N-node
  host-served baseline at the same offered load, extrapolated to
  line rate exactly like S9.
* ``sharding`` — pure-placement properties of the consistent-hash
  map (balance, minimal movement, determinism); no simulation.
* ``rebalance`` — a 4-node cluster with ``node1``'s Arm cluster
  crashed mid-run: fault-free vs unprotected vs rebalancing, the
  cluster-level analogue of the AV experiment.

Everything is seeded and hashed with crc32 (via
:func:`repro.cluster.stable_hash`), so ``--jobs N`` runs stay
byte-identical.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..cluster import Cluster, ClusterClient, Rebalancer, ShardMap
from ..faults import FaultInjector, FaultPlan
from ..sim import Environment
from ..workloads.arrivals import open_loop
from .experiments_system import LINE_RATE_MSGS_PER_S, _s9_point
from .harness import (READ_FRACTION, CoreMeter, Sweep, connect_clients,
                      shard_stream, submit_handler, tally)
from .tco import storage_server_cost
from ..sim.stats import fold_sum

__all__ = ["scale_parts", "scale_goodput_and_tco",
           "sharding_properties", "rebalance_scenarios"]

#: weak-scaling sweep: each node is offered this many requests/s
NODE_COUNTS = (1, 2, 4, 8)
RATE_PER_NODE = 120_000.0
DURATION_S = 5e-3
DRAIN_S = 3e-3
SEED = 31
#: fraction of requests sent to the client's "home" node instead of
#: the shard owner (a routing cache lagging the shard map)
STALE_FRACTION = 0.15

#: rack-scale sweep, every arrival an event (128 x 25K ops/s x 5 ms is
#: ~16K request round trips).  Per-node offered rate is lower than the
#: small sweep's — the rack points compare against each other
#: (cores/node flat, goodput/node linear), not against the 1..8 sweep.
RACK_NODE_COUNTS = (8, 64, 128)
RACK_RATE_PER_NODE = 25_000.0
RACK_DURATION_S = 5e-3
RACK_SEED = 47

#: the DPU-crash triptych: node1's Arm cores die at FAULT_START_S
REBALANCE_NODES = 4
REBALANCE_RATE_PER_NODE = 80_000.0
REBALANCE_DURATION_S = 12e-3
REBALANCE_FAULT_START_S = 4e-3
REBALANCE_SEED = 11


def _scale_point(n_nodes: int, rate_per_node: float,
                 duration_s: float, seed: int) -> Dict[str, float]:
    """One weak-scaling point: N nodes, N shard-aware clients."""
    env = Environment()
    cluster = Cluster(env, n_nodes)
    clients = [
        ClusterClient(cluster, f"client{i}", home=f"node{i}",
                      stale_fraction=STALE_FRACTION if n_nodes > 1
                      else 0.0)
        for i in range(n_nodes)
    ]
    connect_clients(env, clients)
    count = int(rate_per_node * duration_s)
    streams = [
        shard_stream(seed, i, count, cluster.shardmap.n_shards,
                     cluster.shard_bytes)
        for i in range(n_nodes)
    ]
    meters = [CoreMeter(node.server.host_cpu)
              for node in cluster.nodes]
    dpu_meters = [CoreMeter(node.server.dpu.cpu)
                  for node in cluster.nodes]
    for meter in meters + dpu_meters:
        meter.start()

    start = env.now
    for i in range(n_nodes):
        open_loop(env, rate_per_node,
                  submit_handler(clients[i], streams[i]), duration_s,
                  name=f"load{i}")
    env.run(until=start + duration_s)
    # Cores are measured over the load window only (S9 convention);
    # the drain below is just for in-flight requests to land.
    total_host_cores = fold_sum(meter.cores() for meter in meters)
    total_dpu_cores = fold_sum(meter.cores() for meter in dpu_meters)
    env.run(until=start + duration_s + DRAIN_S)
    ok = tally(clients)["ok"]
    snapshot = cluster.metrics_snapshot()
    local = fold_sum(s["shard_local"] for s in snapshot.values())
    routed = fold_sum(s["shard_routed"] for s in snapshot.values())
    served = local + routed
    return {
        "goodput_ops_per_s": ok / duration_s,
        "total_host_cores": total_host_cores,
        "total_dpu_cores": total_dpu_cores,
        "host_cores_per_node": total_host_cores / n_nodes,
        "routed_fraction": routed / served if served else 0.0,
        "ok": float(ok),
    }


def scale_goodput_and_tco() -> Tuple[Sweep, Sweep]:
    """The weak-scaling sweep and its TCO extension, in one pass."""
    goodput = Sweep("nodes")
    tco = Sweep("nodes")
    # The conventional fleet this replaces: N host-served nodes at
    # the same per-node rate (single-node measurement, scaled).
    baseline = _s9_point(RATE_PER_NODE, DURATION_S, "kv",
                         READ_FRACTION, n_connections=4,
                         use_dds=False)
    line_scale = LINE_RATE_MSGS_PER_S / RATE_PER_NODE
    baseline_node_dollars = storage_server_cost(
        baseline["host_cores"] * line_scale, uses_dpu=False)
    reference = None
    for n_nodes in NODE_COUNTS:
        point = _scale_point(n_nodes, RATE_PER_NODE, DURATION_S, SEED)
        if reference is None:
            reference = point["goodput_ops_per_s"]
        goodput.add(
            n_nodes,
            goodput_ops_per_s=point["goodput_ops_per_s"],
            speedup=point["goodput_ops_per_s"] / reference,
            total_host_cores=point["total_host_cores"],
            total_dpu_cores=point["total_dpu_cores"],
            host_cores_per_node=point["host_cores_per_node"],
            routed_fraction=point["routed_fraction"],
        )
        dds_node_dollars = storage_server_cost(
            point["host_cores_per_node"] * line_scale,
            uses_dpu=True)
        tco.add(
            n_nodes,
            dds_cluster_dollars_hr=n_nodes * dds_node_dollars,
            baseline_cluster_dollars_hr=(n_nodes
                                         * baseline_node_dollars),
            savings_ratio=(baseline_node_dollars
                           / dds_node_dollars),
        )
    return goodput, tco


def _rack_point(n_nodes: int) -> Dict[str, float]:
    """One rack point: N nodes, shared client fleet.

    Eight clients (sixteen at 128 nodes) spread the aggregate load so
    no single client stack saturates.
    """
    env = Environment()
    cluster = Cluster(env, n_nodes)
    n_clients = max(8, n_nodes // 8)
    rate_per_client = RACK_RATE_PER_NODE * n_nodes / n_clients
    clients = [
        ClusterClient(cluster, f"client{i}", home=f"node{i % n_nodes}",
                      stale_fraction=STALE_FRACTION)
        for i in range(n_clients)
    ]
    connect_clients(env, clients)
    count = int(rate_per_client * RACK_DURATION_S)
    streams = [
        shard_stream(RACK_SEED, i, count, cluster.shardmap.n_shards,
                     cluster.shard_bytes)
        for i in range(n_clients)
    ]
    meters = [CoreMeter(node.server.host_cpu)
              for node in cluster.nodes]
    dpu_meters = [CoreMeter(node.server.dpu.cpu)
                  for node in cluster.nodes]
    for meter in meters + dpu_meters:
        meter.start()

    start = env.now
    for i in range(n_clients):
        open_loop(env, rate_per_client,
                  submit_handler(clients[i], streams[i]),
                  RACK_DURATION_S, name=f"rack{i}")
    env.run(until=start + RACK_DURATION_S)
    total_host_cores = fold_sum(meter.cores() for meter in meters)
    total_dpu_cores = fold_sum(meter.cores() for meter in dpu_meters)
    env.run(until=start + RACK_DURATION_S + DRAIN_S)
    ok = tally(clients)["ok"]
    snapshot = cluster.metrics_snapshot()
    local = fold_sum(s["shard_local"] for s in snapshot.values())
    routed = fold_sum(s["shard_routed"] for s in snapshot.values())
    served = local + routed
    return {
        "nodes": float(n_nodes),
        "clients": float(n_clients),
        "offered_ops_per_s": RACK_RATE_PER_NODE * n_nodes,
        "goodput_ops_per_s": ok / RACK_DURATION_S,
        "goodput_per_node": ok / RACK_DURATION_S / n_nodes,
        "total_host_cores": total_host_cores,
        "total_dpu_cores": total_dpu_cores,
        "host_cores_per_node": total_host_cores / n_nodes,
        "dpu_cores_per_node": total_dpu_cores / n_nodes,
        "routed_fraction": routed / served if served else 0.0,
        "ok": float(ok),
    }


def rack_sweep() -> Dict[str, Dict[str, float]]:
    """The 64/128-node extension plus its scaling summary."""
    node_counts = RACK_NODE_COUNTS
    points = {str(n): _rack_point(n) for n in node_counts}
    per_node = [points[str(n)]["goodput_per_node"]
                for n in node_counts]
    dpu_cores = [points[str(n)]["dpu_cores_per_node"]
                 for n in node_counts]
    points["scaling"] = {
        "points": float(len(node_counts)),
        "max_nodes": float(max(node_counts)),
        # weak-scaling flatness: smallest/largest per-node goodput
        # and largest/smallest per-node DPU cores across the sweep.
        # Host cores stay ~zero at every size — requests are served
        # DPU-side — so flatness is meaningful only for DPU cores.
        "goodput_linearity": (min(per_node) / max(per_node)
                              if max(per_node) else 0.0),
        "dpu_cores_flat_ratio": (max(dpu_cores) / min(dpu_cores)
                                 if min(dpu_cores) else 0.0),
        "host_cores_per_node_max": max(
            points[str(n)]["host_cores_per_node"]
            for n in node_counts),
    }
    return points


def sharding_properties() -> Dict[str, float]:
    """Placement-only properties of the consistent-hash shard map."""
    n_nodes, n_shards, replicas = 8, 64, 64
    names = [f"node{i}" for i in range(n_nodes)]
    shardmap = ShardMap(n_shards, names, replicas)
    counts = [len(shards)
              for shards in shardmap.assignment().values()]
    mean = n_shards / n_nodes
    plan = shardmap.plan_without("node3")
    rebuilt = ShardMap(n_shards, names, replicas)
    deterministic = all(
        shardmap.owner_of_shard(s) == rebuilt.owner_of_shard(s)
        for s in range(n_shards))
    # Minimal movement: removal must relocate exactly the shards the
    # removed node owned, nowhere else.
    survivor_map = ShardMap(n_shards,
                            [n for n in names if n != "node3"],
                            replicas)
    unmoved_stable = all(
        survivor_map.owner_of_shard(s) == shardmap.owner_of_shard(s)
        for s in range(n_shards) if s not in plan)
    return {
        "n_nodes": float(n_nodes),
        "n_shards": float(n_shards),
        "balance_factor": max(counts) / mean,
        "max_shards_per_node": float(max(counts)),
        "min_shards_per_node": float(min(counts)),
        "moved_fraction": len(plan) / n_shards,
        "expected_moved_fraction": 1.0 / n_nodes,
        "deterministic": float(deterministic),
        "minimal_movement": float(unmoved_stable),
    }


def _rebalance_scenario(mode: str, telemetry=None) -> Dict[str, float]:
    """One cluster run: ``fault_free``, ``norebalance``, ``rebalance``."""
    seed, n_nodes = REBALANCE_SEED, REBALANCE_NODES
    rate_per_node = REBALANCE_RATE_PER_NODE
    duration_s = REBALANCE_DURATION_S
    fault_start_s = REBALANCE_FAULT_START_S
    env = Environment()
    injector = None
    if mode != "fault_free":
        plan = FaultPlan(seed=seed).cpu_crash(
            fault_start_s, 10 * duration_s,
            site="cpu.node1.dpu.cpu")
        injector = FaultInjector(env, plan)
    cluster = Cluster(env, n_nodes, injector=injector,
                      telemetry=telemetry)
    rebalancer = (Rebalancer(cluster) if mode == "rebalance"
                  else None)
    clients = [
        ClusterClient(cluster, f"client{i}", home=f"node{i}",
                      stale_fraction=0.1)
        for i in range(n_nodes)
    ]
    connect_clients(env, clients)
    count = int(rate_per_node * duration_s)
    streams = [
        shard_stream(seed, i, count, cluster.shardmap.n_shards,
                     cluster.shard_bytes)
        for i in range(n_nodes)
    ]

    start = env.now
    for i in range(n_nodes):
        open_loop(env, rate_per_node,
                  submit_handler(clients[i], streams[i]), duration_s,
                  name=f"load{i}")
    env.run(until=start + duration_s + 4e-3)
    totals = tally(clients)
    ok, errors, pending = (totals["ok"], totals["errors"],
                           totals["pending"])
    total = ok + errors + pending
    node1 = cluster.node("node1")
    recovery_s = 0.0
    if rebalancer is not None and rebalancer.cutover_times:
        recovery_s = (max(rebalancer.cutover_times.values())
                      - fault_start_s)
    return {
        "ok": float(ok),
        "errors": float(errors),
        "pending": float(pending),
        "ok_fraction": ok / total if total else 0.0,
        "goodput_ops_per_s": ok / duration_s,
        "breaker_trips": node1.breaker.trips.value,
        "migrated_shards": (rebalancer.migrated_shards.value
                            if rebalancer else 0.0),
        "migrated_bytes": (rebalancer.migrated_bytes.value
                           if rebalancer else 0.0),
        "node1_retired": float(node1.retired),
        "recovery_s": recovery_s,
    }


def rebalance_scenarios(telemetry=None) -> Dict[str, Dict[str, float]]:
    """The DPU-crash triptych: fault-free, unprotected, rebalanced.

    ``telemetry`` (a :class:`~repro.obs.plane.ClusterTelemetry`) is
    threaded into the ``rebalance`` scenario only — one plane observes
    exactly one cluster, and that run is the interesting one: it
    carries forwarded, failed-over, and migration traces.
    """
    return {
        "fault_free": _rebalance_scenario("fault_free"),
        "norebalance": _rebalance_scenario("norebalance"),
        "rebalance": _rebalance_scenario("rebalance",
                                         telemetry=telemetry),
    }


def scale_parts(telemetry) -> Dict[str, object]:
    """SC: the full scale-out experiment for the artifact."""
    goodput, tco = scale_goodput_and_tco()
    return {
        "goodput": goodput,
        "tco": tco,
        "sharding": sharding_properties(),
        "rebalance": rebalance_scenarios(telemetry=telemetry),
        "rack": rack_sweep(),
    }
