"""scan_pushdown: few large scatter-gather scans, mirrored on ``query``.

Set-up builds two ``DistributedScanDeployment``s over the same
generated table (4 nodes, 32 shards; a 100 Gbps and a 2 Gbps fabric,
so both planner regimes occur).  Run is a closed loop of one caller:
queries cycle three shapes (selective aggregate, projection, wide
low-selectivity) and alternate between the fabrics; each is planned,
run under the planner's cluster choice and then under the other plan.
Pushdown and pull must agree bitwise with each other and with an
oracle computed here in plain Python over the generated rows.
"""

from __future__ import annotations

import re
import zlib

from repro.query import (DistributedScanDeployment, ScanQuery,
                         run_distributed_scan)
from repro.units import Gbps
from repro.workloads import TableGenerator

from .base import (Outcome, Scenario, core_counts, cpu_counts,
                   nic_counts, ssd_ios, tcp_counts)

NODES = 4
FABRICS = (("fast", 100 * Gbps), ("slow", 2 * Gbps))
PORT = 9400

#: shape -> (predicate column, predicate, projection, aggregate
#: column, planner selectivity hint)
SHAPES = (
    ("aggregate", "returnflag", lambda v: v == b"A", (),
     "extendedprice", 0.33),
    ("projection", "quantity", lambda v: int(v) >= 45,
     ("orderkey", "extendedprice"), None, 0.12),
    ("wide", "quantity", lambda v: int(v) >= 1, (), None, 1.0),
)

#: pushdown sproc names embed a process-global query counter, and a
#: longer name is a longer wire message: identical scans get different
#: simulated latencies once the counter gains a digit (README,
#: "Findings").  Repeats stay bit-identical by keeping every id the
#: benchmark uses at four digits.
_MIN_QUERY_ID = 1000
_SPROC_NAME = re.compile(r"scan(\d+)_s\d+")


def _pin_query_id_width() -> None:
    probe = DistributedScanDeployment(n_nodes=1, n_rows=8, n_shards=1,
                                      port=PORT)
    query = _query(SHAPES[0])
    while True:
        names = probe.register_scan_sprocs(query)
        match = _SPROC_NAME.fullmatch(next(iter(names.values())))
        if match is None or int(match.group(1)) >= _MIN_QUERY_ID:
            return


def _query(shape) -> ScanQuery:
    _name, column, predicate, projection, aggregate, selectivity = shape
    return ScanQuery(predicate_column=column, predicate=predicate,
                     projection=list(projection),
                     aggregate_column=aggregate,
                     estimated_selectivity=selectivity)


def _oracle(table: bytes, schema, shard_of, shape) -> tuple:
    """(rows, count, total, minimum, maximum) in plain Python.

    Per-shard partials folded in shard order — the decomposition both
    plans use, so float sums associate identically.
    """
    _name, column, predicate, projection, aggregate, _hint = shape
    names = schema.column_names
    where = names.index(column)
    by_shard = {}
    for index, row in enumerate(r for r in table.split(b"\n") if r):
        fields = row.split(b",")
        if predicate(fields[where]):
            by_shard.setdefault(shard_of(index), []).append(fields)
    if aggregate is not None:
        at = names.index(aggregate)
        count, total, lows, highs = 0, 0, [], []
        for shard in sorted(by_shard):
            values = [float(fields[at]) for fields in by_shard[shard]]
            count += len(values)
            total += sum(values)
            lows.append(min(values))
            highs.append(max(values))
        return (None, count, total, min(lows) if lows else None,
                max(highs) if highs else None)
    picks = ([names.index(name) for name in projection]
             or range(len(names)))
    rows = [b",".join(fields[i] for i in picks)
            for shard in sorted(by_shard) for fields in by_shard[shard]]
    return (rows, len(rows), None, None, None)


def _answer(result) -> tuple:
    return (result.rows, result.count, result.total, result.minimum,
            result.maximum)


class ScanPushdown(Scenario):
    """See the module docstring."""

    name = "scan_pushdown"
    op_metric = "query.scan_host_ms"
    FULL = {"rows": 48_000, "shards": 32, "queries": 42}
    REDUCED = {"rows": 4_000, "shards": 8, "queries": 6}

    def build(self) -> None:
        _pin_query_id_width()
        self.deployments = {
            fabric: DistributedScanDeployment(
                n_nodes=NODES, n_rows=self.sizes["rows"],
                n_shards=self.sizes["shards"], seed=self.seed,
                port=PORT, network_bps=bps)
            for fabric, bps in FABRICS}

    def generate(self) -> None:
        generator = TableGenerator(seed=self.seed)
        table = generator.rows(self.sizes["rows"])
        shard_of = self.deployments["fast"].cluster.shardmap.shard_of
        self.oracle = {shape[0]: _oracle(table, generator.schema,
                                         shard_of, shape)
                       for shape in SHAPES}

    def connect(self) -> None:
        for deployment in self.deployments.values():
            deployment.load()

    def run(self) -> None:
        self.scans = []
        fabrics = [fabric for fabric, _bps in FABRICS]
        self.sim_started = {fabric: d.env.now
                            for fabric, d in self.deployments.items()}
        for index in range(self.sizes["queries"]):
            shape = SHAPES[index % len(SHAPES)]
            fabric = fabrics[(index // len(SHAPES)) % len(fabrics)]
            deployment = self.deployments[fabric]
            coordinator_cpu = deployment.coordinator.server.host_cpu
            with self.spans.span(f"op:query{index}:{shape[0]}@{fabric}"):
                query = _query(shape)
                chosen = deployment.plan(query)["cluster_choice"]
                other = "pull" if chosen == "pushdown" else "pushdown"
                for plan in (chosen, other):
                    busy = coordinator_cpu.busy_seconds()
                    stats = run_distributed_scan(deployment, query,
                                                 plan=plan)
                    self.scans.append({
                        "query": index, "shape": shape[0],
                        "fabric": fabric, "plan": plan,
                        "planner_choice": chosen,
                        "coordinator_busy_s":
                            coordinator_cpu.busy_seconds() - busy,
                        "stats": stats,
                    })
            self.spans.pace()

    def collect(self) -> Outcome:
        deployments = list(self.deployments.values())
        scans = self.scans
        identical = oracle_ok = 0
        rows = []
        for chosen, other in zip(scans[0::2], scans[1::2]):
            a, b = (_answer(chosen["stats"]["result"]),
                    _answer(other["stats"]["result"]))
            identical += a == b
            oracle_ok += a == b == self.oracle[chosen["shape"]]
        for scan in scans:
            stats, result = scan["stats"], scan["stats"]["result"]
            payload = repr((result.count, result.total, result.minimum,
                            result.maximum)).encode()
            if result.rows is not None:
                payload += b"|" + b"|".join(result.rows)
            rows.append({
                "query": scan["query"], "shape": scan["shape"],
                "fabric": scan["fabric"], "plan": scan["plan"],
                "planner_choice": scan["planner_choice"],
                "elapsed_s": stats["elapsed_s"],
                "bytes_received": stats["bytes_received"],
                "host_busy_s": stats["host_busy_s"],
                "dpu_busy_s": stats["dpu_busy_s"],
                "coordinator_busy_s": scan["coordinator_busy_s"],
                "forwards": stats["forwards"],
                "count": result.count,
                "result_crc": zlib.crc32(payload),
            })
        pushdown = [row for row in rows if row["plan"] == "pushdown"]
        window_s = sum(d.env.now - self.sim_started[fabric]
                       for fabric, d in self.deployments.items())
        nodes = [node for d in deployments for node in d.cluster.nodes]
        servers = ([node.server for node in nodes]
                   + [d.coordinator.server for d in deployments])
        pairs = len(scans) // 2
        counts = {}
        counts.update(core_counts(d.env for d in deployments))
        counts.update(cpu_counts(
            [server.host_cpu for server in servers],
            [node.server.dpu.cpu for node in nodes]))
        counts.update(nic_counts(server.nic for server in servers))
        counts.update(tcp_counts(
            [d.coordinator.stack for d in deployments]
            + [node.runtime.network.tcp for node in nodes]))
        counts.update({
            "hardware.switch.frames": sum(
                d.cluster.switch.frames_forwarded.value
                for d in deployments),
            "hardware.switch.drops": sum(
                d.cluster.switch.frames_dropped.value
                for d in deployments),
            "hardware.ssd.ios": ssd_ios(node.server for node in nodes),
            "core.dds.offloaded":
                sum(node.dds.shard_local.value for node in nodes),
            "core.ce.kernel_execs": sum(
                node.runtime.compute.kernel_executions.value
                for node in nodes),
            "core.ce.degraded": sum(
                node.runtime.compute.degraded.value for node in nodes),
            "core.se.dpu_ops": sum(
                node.runtime.storage.dpu_ops.value for node in nodes),
            "core.se.host_ops": sum(
                node.runtime.storage.host_ops.value for node in nodes),
            "cluster.router.forwards":
                sum(node.router.forwards.value for node in nodes),
            "cluster.router.forward_failures": sum(
                node.router.forward_failures.value for node in nodes),
            "cluster.nodes_final": float(len(nodes)),
            "query.scans": float(len(scans)),
            "query.rows_scanned":
                float(len(scans) * self.sizes["rows"]),
            "query.bytes_received":
                float(sum(row["bytes_received"] for row in rows)),
            "workloads.ops_generated": float(self.sizes["rows"]),
            "client.issued": float(len(scans)),
            "client.ok": float(2 * oracle_ok),
            "client.error": float(2 * (pairs - oracle_ok)),
        })
        host_cores = (sum(row["coordinator_busy_s"] for row in pushdown)
                      / sum(row["elapsed_s"] for row in pushdown))
        return Outcome(
            simulated={"counts": counts, "scans": rows,
                       "host_cores": host_cores},
            latencies_us=[row["elapsed_s"] * 1e6 for row in rows],
            censor_us=window_s * 1e6,
            good=2 * oracle_ok,
            window_s=window_s,
            host_cores=host_cores,
            sim_ops=len(scans),
            counts=counts,
            checks=[
                ("pushdown_equals_pull_bitwise", identical == pairs),
                ("both_plans_equal_python_oracle", oracle_ok == pairs),
            ],
        )
