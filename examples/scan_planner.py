#!/usr/bin/env python3
"""Cost-based pushdown planning with the query layer.

The highest-level API in this repository: declare a scan, let the
planner price the *pull* plan (ship pages, filter at the compute
node) against the *pushdown* plan (filter/project/aggregate as DP
kernels on the DPU), and execute whichever wins — verifying both
plans return identical answers.

The interesting part is that pushdown does NOT always win: DPU Arm
cores are slower than host cores, so on a fat network a non-selective
scan is cheaper to pull.  The planner captures that crossover.

Run:  python examples/scan_planner.py
"""

from repro.query import (DistributedScanDeployment, ScanQuery, explain,
                         plan_scan, run_distributed_scan)
from repro.units import Gbps, fmt_bytes, fmt_time

QUERIES = {
    "selective projection (q >= 45, 2 cols)": ScanQuery(
        predicate_column="quantity",
        predicate=lambda value: int(value) >= 45,
        projection=["orderkey", "extendedprice"],
        estimated_selectivity=0.12,
    ),
    "revenue aggregate over returnflag=A": ScanQuery(
        predicate_column="returnflag",
        predicate=lambda value: value == b"A",
        aggregate_column="extendedprice",
        estimated_selectivity=0.33,
    ),
    "non-selective full scan": ScanQuery(
        predicate_column="quantity",
        predicate=lambda value: True,
        estimated_selectivity=1.0,
    ),
}


def main():
    # One storage node: the single-node deployment is the one-node
    # case of the scatter-gather engine, not a second executor.
    deployment = DistributedScanDeployment(n_nodes=1, n_rows=2_000,
                                           n_shards=1)
    table_bytes = len(deployment.table_bytes)
    n_columns = len(deployment.schema.columns)
    # The planner prices at the storage node's DPU clock and the
    # compute node's host clock.
    dpu = deployment.cluster.nodes[0].server.dpu.profile
    host = deployment.coordinator.server.host_profile
    print(f"table: {deployment.n_rows} rows, {fmt_bytes(table_bytes)}\n")

    for title, query in QUERIES.items():
        print(f"--- {title} ---")
        for bandwidth in (100 * Gbps, 5 * Gbps):
            plan = plan_scan(query, table_bytes, n_columns, dpu, host,
                             network_bps=bandwidth)
            print(f"at {bandwidth / Gbps:.0f} Gbps: "
                  f"planner chooses {plan['choice']}")
        print(explain(plan_scan(query, table_bytes, n_columns, dpu,
                                host)))

        pushdown = run_distributed_scan(deployment, query,
                                        plan="pushdown")
        pull = run_distributed_scan(deployment, query, plan="pull")
        assert pushdown["result"].matches(pull["result"]), \
            "plans disagree!"
        print(f"measured: pushdown moved "
              f"{fmt_bytes(pushdown['bytes_received'])} in "
              f"{fmt_time(pushdown['elapsed_s'])}; pull moved "
              f"{fmt_bytes(pull['bytes_received'])} in "
              f"{fmt_time(pull['elapsed_s'])}")
        if query.is_aggregate:
            print(f"answer: count={pushdown['result'].count}, "
                  f"sum={pushdown['result'].total:,.2f}")
        else:
            print(f"answer: {pushdown['result'].count} rows "
                  "(identical under both plans)")
        print()


if __name__ == "__main__":
    main()
