"""Q: distributed scan queries — pushdown vs pull across the cluster.

The paper's end-to-end payoff: a ``ScanQuery`` over a sharded table,
scattered through the shard map, with predicate/projection/partial
aggregation compiled into DDS UDFs that run on the owning node's Arm
cores next to the shard file.  Only selected bytes cross the wire and
the coordinator's host cores barely work — at the price of slower
per-byte compute on the A72s.

Parts:

* ``scatter`` — strong-scaling sweep over node count (1/2/4/8) at a
  fixed table size, running the same aggregate query both ways on
  every cluster.  Reports end-to-end latency, coordinator+host busy
  time, coordinator wire bytes, and the pull/pushdown ratios.  The
  honest regime is preserved: at 100 Gbps pull *wins latency* (EPYC
  cores out-churn the A72s and the wire is not the bottleneck); what
  pushdown buys is an order of magnitude in host cycles and wire
  bytes.
* ``planner`` — the cluster-aware cost model against the measured
  argmin on three far-from-crossover regimes: a non-selective full
  scan on fast and slow fabric (pull wins both — pushdown cannot
  shrink what it ships) and a selective aggregate on a 2 Gbps fabric
  (pushdown wins outright — the wire is the bottleneck and pushdown
  starves it).
* ``identity`` — the hard identity contract: for every query shape
  (projection, aggregate, full scan) the pushdown plan, the pull
  plan, and the auto plan return byte-identical answers.
* ``routing`` — a coordinator with a deliberately stale shard map:
  every misdirected sub-query rides the existing DPU-side forwarding
  path and the answer still matches a fresh coordinator's truth.

Each part is one row of ``python -m repro.bench``.  Everything is
seeded and every deployment listens on its own ports; repeated runs
and ``--jobs N`` runs stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..algos import crc32
from ..query import (DistributedScanDeployment, QueryResult, ScanQuery,
                     run_distributed_scan)
from ..units import Gbps
from .harness import Sweep
from ..sim.stats import fold_sum

__all__ = ["scatter_scaling", "planner_regimes", "identity_matrix",
           "stale_routing"]

#: scatter sweep: table and fabric held fixed while nodes vary
SCATTER_NODES: Tuple[int, ...] = (1, 2, 4, 8)
SCATTER_ROWS = 48_000
SCATTER_SHARDS = 32
FAST_BPS = 100 * Gbps
SLOW_BPS = 2 * Gbps


def _aggregate_query() -> ScanQuery:
    """SUM/MIN/MAX/COUNT of extendedprice over A-flagged rows."""
    return ScanQuery(predicate_column="returnflag",
                     predicate=lambda v: v == b"A",
                     aggregate_column="extendedprice",
                     estimated_selectivity=0.33)


def _projection_query() -> ScanQuery:
    """Two narrow columns of the rare high-quantity rows."""
    return ScanQuery(predicate_column="quantity",
                     predicate=lambda v: int(v) >= 45,
                     projection=("orderkey", "extendedprice"),
                     estimated_selectivity=0.12)


def _wide_query() -> ScanQuery:
    """Every column of every row — pushdown cannot shrink this."""
    return ScanQuery(predicate_column="quantity",
                     predicate=lambda v: int(v) >= 1,
                     estimated_selectivity=1.0)


def _exact(a: QueryResult, b: QueryResult) -> bool:
    """Bitwise result identity (stricter than semantic ``matches``)."""
    return (a.count == b.count and a.rows == b.rows
            and a.total == b.total and a.minimum == b.minimum
            and a.maximum == b.maximum)


def _result_crc(result: QueryResult) -> int:
    payload = repr((result.count, result.total, result.minimum,
                    result.maximum)).encode()
    if result.rows is not None:
        payload += b"|" + b"|".join(result.rows)
    return crc32(payload)


# -- scatter ----------------------------------------------------------------


def scatter_scaling() -> Sweep:
    """The same aggregate both ways on 1/2/4/8-node clusters."""
    sweep = Sweep("nodes")
    base_elapsed = None
    for i, n_nodes in enumerate(SCATTER_NODES):
        deployment = DistributedScanDeployment(
            n_nodes=n_nodes, n_rows=SCATTER_ROWS,
            n_shards=SCATTER_SHARDS, port=9400 + i,
            network_bps=FAST_BPS)
        query = _aggregate_query()
        push = run_distributed_scan(deployment, query, plan="pushdown")
        pull = run_distributed_scan(deployment, query, plan="pull")
        if base_elapsed is None:
            base_elapsed = push["elapsed_s"]
        host_ratio = (pull["host_busy_s"] / push["host_busy_s"]
                      if push["host_busy_s"] else float("inf"))
        wire_ratio = (pull["bytes_received"] / push["bytes_received"]
                      if push["bytes_received"] else float("inf"))
        sweep.add(
            n_nodes,
            pushdown_ms=push["elapsed_s"] * 1e3,
            pull_ms=pull["elapsed_s"] * 1e3,
            pushdown_host_busy_ms=push["host_busy_s"] * 1e3,
            pull_host_busy_ms=pull["host_busy_s"] * 1e3,
            pushdown_wire_bytes=float(push["bytes_received"]),
            pull_wire_bytes=float(pull["bytes_received"]),
            host_ratio=host_ratio,
            wire_ratio=wire_ratio,
            pushdown_speedup=base_elapsed / push["elapsed_s"],
            identical=1.0 if _exact(push["result"],
                                    pull["result"]) else 0.0,
        )
    return sweep


# -- planner ----------------------------------------------------------------

#: (config, query factory, nodes, rows, shards, fabric bps)
_REGIMES = (
    ("wide_fast", _wide_query, 8, 8_000, 16, FAST_BPS),
    ("wide_slow", _wide_query, 4, 4_000, 8, SLOW_BPS),
    ("agg_slow", _aggregate_query, 4, 4_000, 8, SLOW_BPS),
)


def planner_regimes() -> Dict[str, Dict[str, float]]:
    """Cluster-aware plan choice vs the measured argmin per regime."""
    rows: Dict[str, Dict[str, float]] = {}
    for i, (name, make_query, n_nodes, n_rows, n_shards,
            bps) in enumerate(_REGIMES):
        deployment = DistributedScanDeployment(
            n_nodes=n_nodes, n_rows=n_rows, n_shards=n_shards,
            port=9500 + i, network_bps=bps)
        query = make_query()
        plan = deployment.plan(query)
        push = run_distributed_scan(deployment, query,
                                    plan="pushdown")
        pull = run_distributed_scan(deployment, query, plan="pull")
        measured = ("pushdown"
                    if push["elapsed_s"] < pull["elapsed_s"]
                    else "pull")
        pushdown_shards = fold_sum(
            1 for choice in plan["choices"].values()
            if choice == "pushdown")
        rows[name] = {
            "planner_pushdown":
                1.0 if plan["cluster_choice"] == "pushdown" else 0.0,
            "measured_pushdown":
                1.0 if measured == "pushdown" else 0.0,
            "matches":
                1.0 if plan["cluster_choice"] == measured else 0.0,
            "pushdown_shard_fraction":
                pushdown_shards / len(plan["choices"]),
            "pull_ms": pull["elapsed_s"] * 1e3,
            "pushdown_ms": push["elapsed_s"] * 1e3,
            "pull_wall_ms": plan["pull_wall_s"] * 1e3,
            "pushdown_wall_ms": plan["pushdown_wall_s"] * 1e3,
            "identical": 1.0 if _exact(push["result"],
                                       pull["result"]) else 0.0,
        }
    return rows


# -- identity ---------------------------------------------------------------


def identity_matrix() -> Dict[str, float]:
    """Pushdown, pull, and auto answers for every query shape."""
    shapes = (("projection", _projection_query),
              ("aggregate", _aggregate_query),
              ("wide", _wide_query))
    all_identical = True
    auto_matches = True
    combined_crc = 0
    for i, (_name, make_query) in enumerate(shapes):
        deployment = DistributedScanDeployment(
            n_nodes=4, n_rows=8_000, n_shards=16, port=9600 + i,
            network_bps=FAST_BPS)
        query = make_query()
        push = run_distributed_scan(deployment, query,
                                    plan="pushdown")
        pull = run_distributed_scan(deployment, query, plan="pull")
        auto = run_distributed_scan(deployment, query)
        all_identical &= _exact(push["result"], pull["result"])
        auto_matches &= _exact(auto["result"], push["result"])
        combined_crc = crc32(
            _result_crc(push["result"]).to_bytes(4, "big"),
            combined_crc)
    return {
        "shapes": float(len(shapes)),
        "all_identical": 1.0 if all_identical else 0.0,
        "auto_matches": 1.0 if auto_matches else 0.0,
        "result_crc": float(combined_crc),
    }


# -- routing ----------------------------------------------------------------


def stale_routing() -> Dict[str, float]:
    """A stale coordinator's scans forward DPU-side and stay right."""
    stale = DistributedScanDeployment(
        n_nodes=4, n_rows=8_000, n_shards=16, port=9700,
        network_bps=FAST_BPS, stale_fraction=1.0)
    fresh = DistributedScanDeployment(
        n_nodes=4, n_rows=8_000, n_shards=16, port=9710,
        network_bps=FAST_BPS)
    query = _aggregate_query()
    misdirected = run_distributed_scan(stale, query, plan="pushdown")
    truth = run_distributed_scan(fresh, query, plan="pushdown")
    return {
        "forwards": float(misdirected["forwards"]),
        "matches_truth":
            1.0 if _exact(misdirected["result"],
                          truth["result"]) else 0.0,
        "sub_queries": float(len(stale.partitions)),
    }
