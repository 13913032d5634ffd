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

Every simulation is a row of ``ROWS["scale"]``
(:mod:`repro.bench.harness`): four sweep points, three triptych runs,
three rack points and the host-served baseline node the ``tco`` part
prices, each one unit of ``--jobs N``.  Everything is
seeded and hashed with crc32 (via :func:`repro.cluster.stable_hash`),
so those runs stay byte-identical.
"""

from __future__ import annotations

from typing import Dict

from ..cluster import ShardMap
from .experiments_system import LINE_RATE_MSGS_PER_S
from .harness import Sweep, run_cluster, tally
from .tco import storage_server_cost
from ..sim.stats import fold_sum

__all__ = ["scale_unit", "scale_parts", "sharding_properties"]


def _point(run) -> Dict[str, float]:
    """A sweep or rack point: goodput, cores and the DPU-routed share."""
    row = run.row
    n_nodes, n_clients = row.nodes, len(row.clients)
    ok = tally(run.clients)["ok"]
    snapshot = run.cluster.metrics_snapshot()
    local = fold_sum(s["shard_local"] for s in snapshot.values())
    routed = fold_sum(s["shard_routed"] for s in snapshot.values())
    served = local + routed
    return {
        "nodes": float(n_nodes),
        "clients": float(n_clients),
        "offered_ops_per_s": row.rate * n_clients,
        "goodput_ops_per_s": ok / row.duration_s,
        "goodput_per_node": ok / row.duration_s / n_nodes,
        "total_host_cores": run.host_cores,
        "total_dpu_cores": run.dpu_cores,
        "host_cores_per_node": run.host_cores / n_nodes,
        "dpu_cores_per_node": run.dpu_cores / n_nodes,
        "routed_fraction": routed / served if served else 0.0,
        "ok": float(ok),
    }


def _triptych(run) -> Dict[str, float]:
    """A DPU-crash run: fault-free, unhealed or rebalancing."""
    totals = tally(run.clients)
    ok, errors, pending = (totals["ok"], totals["errors"],
                           totals["pending"])
    total = ok + errors + pending
    node1 = run.cluster.node("node1")
    rebalancer = run.rebalancer
    recovery_s = 0.0
    if rebalancer is not None and rebalancer.cutover_times:
        recovery_s = (max(rebalancer.cutover_times.values())
                      - run.row.crash[1])
    return {
        "ok": float(ok),
        "errors": float(errors),
        "pending": float(pending),
        "ok_fraction": ok / total if total else 0.0,
        "goodput_ops_per_s": ok / run.row.duration_s,
        "breaker_trips": node1.breaker.trips.value,
        "migrated_shards": (rebalancer.migrated_shards.value
                            if rebalancer else 0.0),
        "migrated_bytes": (rebalancer.migrated_bytes.value
                           if rebalancer else 0.0),
        "node1_retired": float(node1.retired),
        "recovery_s": recovery_s,
    }


def scale_unit(name: str, row, telemetry) -> Dict[str, float]:
    """Run one ``scale`` row; the numbers its part reads.

    ``baseline`` is a single-node row, the host-served server the
    cluster replaces.  ``telemetry`` (a
    :class:`~repro.obs.plane.ClusterTelemetry`, from ``--trace-out``)
    watches the ``rebalance`` row only — one plane observes exactly
    one cluster, and that run is the interesting one: it carries
    forwarded, failed-over, and migration traces.
    """
    if name == "baseline":
        return row()
    run = run_cluster(row, telemetry if name == "rebalance" else None)
    return _point(run) if row.meter else _triptych(run)


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


def scale_parts(results: Dict[str, Dict]) -> Dict[str, object]:
    """SC: the full scale-out experiment for the artifact, from
    :func:`scale_unit`'s results keyed by row."""
    # The conventional fleet the sweep replaces: N host-served nodes
    # at the same per-node rate (single-node measurement, scaled).
    line_scale = (LINE_RATE_MSGS_PER_S
                  / results["goodput.1"]["offered_ops_per_s"])
    baseline_node_dollars = storage_server_cost(
        results["baseline"]["host_cores"] * line_scale, uses_dpu=False)
    goodput = Sweep("nodes")
    tco = Sweep("nodes")
    rack: Dict[str, Dict[str, float]] = {}
    reference = None
    for name, point in results.items():
        kind, _, nodes = name.partition(".")
        if kind == "rack":
            rack[nodes] = point
        if kind != "goodput":
            continue
        n_nodes = int(nodes)
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
    per_node = [point["goodput_per_node"] for point in rack.values()]
    dpu_cores = [point["dpu_cores_per_node"] for point in rack.values()]
    rack["scaling"] = {
        "points": float(len(per_node)),
        "max_nodes": float(max(int(nodes) for nodes in rack)),
        # weak-scaling flatness: smallest/largest per-node goodput
        # and largest/smallest per-node DPU cores across the sweep.
        # Host cores stay ~zero at every size — requests are served
        # DPU-side — so flatness is meaningful only for DPU cores.
        "goodput_linearity": (min(per_node) / max(per_node)
                              if max(per_node) else 0.0),
        "dpu_cores_flat_ratio": (max(dpu_cores) / min(dpu_cores)
                                 if min(dpu_cores) else 0.0),
        "host_cores_per_node_max": max(
            point["host_cores_per_node"] for point in rack.values()),
    }
    return {
        "goodput": goodput,
        "tco": tco,
        "sharding": sharding_properties(),
        "rebalance": {mode: results[mode] for mode in
                      ("fault_free", "norebalance", "rebalance")},
        "rack": rack,
    }
