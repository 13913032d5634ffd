"""Multi-node scale-out: sharded DDS serving over the simulated switch.

The single-node runtime (:mod:`repro.core`) answers the paper's
"how does one DPU serve storage"; this package answers the Figure-9
question — what N of them look like as a serving tier.  See
``docs/SCALING.md`` for the model and the determinism contract.
"""

from ..core.wire import (encode_shard_pull, encode_shard_read,
                         encode_shard_scan, encode_shard_write,
                         response_ok, stamp_expiry)
from .autoscale import AutoscalePolicy, Autoscaler
from .cluster import Cluster, ClusterClient, ClusterNode
from .rebalance import MigrationService, Rebalancer
from .router import ClusterDdsServer, ShardRouter
from .sharding import ShardMap, stable_hash

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "Cluster",
    "ClusterClient",
    "ClusterNode",
    "ClusterDdsServer",
    "MigrationService",
    "Rebalancer",
    "ShardMap",
    "ShardRouter",
    "encode_shard_pull",
    "encode_shard_read",
    "encode_shard_scan",
    "encode_shard_write",
    "response_ok",
    "stable_hash",
    "stamp_expiry",
]
