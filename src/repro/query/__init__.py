"""Remote scan queries with pushdown planning.

The adoption layer for the paper's predicate-pushdown scenario: a
DBMS-facing :class:`ScanQuery`, a cost-based planner that chooses
between shipping pages (pull) and shipping results (DPU pushdown),
and an executor that runs either plan over a live simulated
deployment — with identical answers guaranteed.

:mod:`repro.query.distributed` is that executor, on one node or a
sharded cluster: per-shard plan choice, scatter through the shard
map, DPU-side execution next to each shard file, and a coordinator
merge with exact partial-aggregate decomposition.
"""

from .distributed import (DistributedScanDeployment, merge_partials,
                          plan_distributed, run_distributed_scan)
from .planner import PlanEstimate, explain, plan_scan
from .scan import QueryResult, ScanQuery

__all__ = [
    "DistributedScanDeployment",
    "run_distributed_scan",
    "PlanEstimate",
    "explain",
    "merge_partials",
    "plan_distributed",
    "plan_scan",
    "QueryResult",
    "ScanQuery",
]
