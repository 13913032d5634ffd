"""Scan execution over a live DPDPU deployment.

:class:`ScanDeployment` stands up the full stack — a DPU storage
server holding the table, a compute node, DDS in between — and
:func:`run_scan` executes a :class:`~repro.query.scan.ScanQuery`
under either plan:

* ``pull`` — the compute node reads every table page through DDS and
  evaluates the query locally (charging its own cores);
* ``pushdown`` — a scan sproc registered with the server's Compute
  Engine runs filter/project/aggregate kernels on the DPU and ships
  only the result.

Both paths return a :class:`~repro.query.scan.QueryResult`; tests
assert they match the plain-Python ground truth exactly.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

from ..baselines.host_tcp import make_kernel_tcp
from ..buffers import RealBuffer, split_records
from ..core import DdsClient, DpdpuRuntime, encode_sproc
from ..hardware import BLUEFIELD2, connect, make_server
from ..sim import Environment
from ..units import MiB
from ..workloads.tables import TableGenerator
from .planner import plan_scan
from .scan import QueryResult, ScanQuery

__all__ = ["ScanDeployment", "run_scan"]

_scan_ids = itertools.count(1)

_PORT = 9700        # the storage server's DDS port


class ScanDeployment:
    """A table served by a DPDPU storage server, plus a compute node."""

    def __init__(self, n_rows: int = 2_000, seed: int = 77):
        self.env = Environment()
        self.generator = TableGenerator(seed=seed)
        self.schema = self.generator.schema
        self.table_bytes = self.generator.rows(n_rows)
        self.n_rows = n_rows

        self.storage = make_server(self.env, name="storage",
                                   dpu_profile=BLUEFIELD2)
        self.compute_node = make_server(self.env, name="compute",
                                        dpu_profile=None)
        connect(self.storage, self.compute_node)
        self.runtime = DpdpuRuntime(self.storage)
        size = max(len(self.table_bytes) * 2, 4 * MiB)
        self.file_id = self.runtime.storage.create("table.csv",
                                                   size=size)
        self.dds = self.runtime.dds(port=_PORT)
        # One kernel TCP stack for the compute node: stacks own their
        # ingress queue, so all scans share this instance.
        self.client_tcp = make_kernel_tcp(self.compute_node,
                                          "scan-tcp")
        self._loaded = False

    def load(self) -> None:
        """Write the table through the Storage Engine (device-timed)."""
        if self._loaded:
            return

        def writer():
            request = self.runtime.storage.write(
                self.file_id, 0, RealBuffer(self.table_bytes)
            )
            yield request.done

        self.env.run(until=self.env.process(writer()))
        self._loaded = True

    def register_scan_sproc(self, query: ScanQuery) -> str:
        """Register the pushdown sproc for ``query``; returns its name.

        (A real deployment pre-registers sprocs; the closure captures
        the query's predicate the way precompiled user code would.)
        """
        name = f"scan_{next(_scan_ids)}"
        schema = self.schema
        file_id = self.file_id
        table_len = len(self.table_bytes)
        predicate_index = schema.index_of(query.predicate_column)

        def scan_sproc(ctx, arg):
            data = yield from ctx.wait(
                ctx.se.read(file_id, 0, table_len)
            )
            filtered = yield from ctx.wait(ctx.dpk("filter")(
                data, params={"column": predicate_index,
                              "predicate": query.predicate},
            ))
            if query.is_aggregate:
                aggregate_index = schema.index_of(
                    query.aggregate_column
                )
                aggregate_request = ctx.dpk("aggregate")(
                    filtered, params={"column": aggregate_index,
                                      "extract": float},
                )
                yield from ctx.wait(aggregate_request)
                return RealBuffer(
                    json.dumps(aggregate_request.meta).encode()
                )
            if query.projection:
                indices = [schema.index_of(column)
                           for column in query.projection]
                projected = yield from ctx.wait(ctx.dpk("project")(
                    filtered, params={"columns": indices},
                ))
                return projected
            return filtered

        self.runtime.compute.register_sproc(name, scan_sproc)
        return name


def run_scan(deployment: ScanDeployment, query: ScanQuery,
             plan: Optional[str] = None) -> dict:
    """Execute ``query``; returns result + measured statistics.

    ``plan`` forces "pull" or "pushdown"; None lets the planner pick.
    """
    query.validate_against(deployment.schema)
    deployment.load()
    if plan is None:
        plan = plan_scan(
            query, len(deployment.table_bytes),
            len(deployment.schema.columns),
        )["choice"]
    if plan not in ("pull", "pushdown"):
        raise ValueError(f"unknown plan {plan!r}")

    env = deployment.env
    client_tcp = deployment.client_tcp
    stats = {"plan": plan}
    started = env.now
    rx_before = deployment.compute_node.nic.rx_bytes.value

    if plan == "pushdown":
        sproc_name = deployment.register_scan_sproc(query)

        def pushdown_client():
            connection = yield from client_tcp.connect(_PORT)
            dds_client = DdsClient(connection)
            request = dds_client.submit(encode_sproc(sproc_name))
            buffer = yield request.done
            stats["result"] = _decode_pushdown(buffer, query)

        env.run(until=env.process(pushdown_client()))
    else:
        def pull_client():
            connection = yield from client_tcp.connect(_PORT)
            dds_client = DdsClient(connection)
            table_len = len(deployment.table_bytes)
            # One large object read; TCP segments it on the wire, so
            # this streams rather than paying a round trip per page.
            buffer = yield from dds_client.read(
                deployment.file_id, 0, table_len
            )
            raw = buffer.data
            # Local evaluation burns compute-node cycles.
            costs = deployment.compute_node.costs
            cycles = costs.cpu_cycles("filter", len(raw), "host")
            yield from deployment.compute_node.host_cpu.execute(cycles)
            stats["result"] = query.evaluate(raw, deployment.schema)

        env.run(until=env.process(pull_client()))

    stats["elapsed_s"] = env.now - started
    stats["bytes_received"] = (
        deployment.compute_node.nic.rx_bytes.value - rx_before
    )
    return stats


def _decode_pushdown(buffer, query: ScanQuery) -> QueryResult:
    if query.is_aggregate:
        meta = json.loads(buffer.data)
        return QueryResult(
            rows=None, count=meta["count"], total=meta["sum"],
            minimum=meta["min"], maximum=meta["max"],
        )
    rows = list(split_records(buffer.data, b"\n"))
    return QueryResult(rows=rows, count=len(rows))
