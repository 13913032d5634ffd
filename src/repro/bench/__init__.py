"""Benchmark harness and the experiment library.

One function per paper figure/table (F1–F3, F6–F8, S9), per ablation
(A1–A6) and per system experiment; ``python -m repro.bench`` runs
them and :mod:`repro.obs.claims` holds the reproduction's shape
contract over what they return.  Everything here reports *simulated*
numbers — host time is ``hostbench``'s.
"""

from .experiments_ablation import (
    a1_parts,
    a2_parts,
    a3_parts,
    a4_parts,
    a5_parts,
    a6_parts,
    ablation_caching,
    ablation_fusion,
    ablation_partial_offload,
    ablation_persistence,
    ablation_portability,
    ablation_scheduling,
)
from .experiments_availability import (
    availability,
    availability_parts,
    availability_tcp_blackhole,
)
from .experiments_attr import (
    advisor_online,
    advisor_static_check,
    attr_parts,
)
from .experiments_obs import default_slos, obs_parts
from .experiments_slo import slo_parts
from .experiments_query import (
    identity_matrix,
    planner_regimes,
    query_parts,
    scatter_scaling,
    stale_routing,
)
from .experiments_scale import scale_parts, sharding_properties
from .experiments_micro import (
    fig1_compression,
    fig1_parts,
    fig1_real_bytes_checkpoint,
    fig2_parts,
    fig2_storage_cpu,
    fig3_network_cpu,
    fig3_parts,
)
from .experiments_system import (
    LINE_RATE_MSGS_PER_S,
    fig6_parts,
    fig6_sproc,
    fig7_parts,
    fig7_rdma,
    fig8_dds_latency,
    fig8_parts,
    s9_dds_cores,
    s9_parts,
)
from .harness import CoreMeter, Sweep, SweepRow
from .reporting import banner, format_table

__all__ = [
    "ablation_caching",
    "ablation_fusion",
    "ablation_partial_offload",
    "ablation_persistence",
    "ablation_portability",
    "ablation_scheduling",
    "availability",
    "availability_tcp_blackhole",
    "fig1_compression",
    "fig1_real_bytes_checkpoint",
    "fig2_storage_cpu",
    "fig3_network_cpu",
    "LINE_RATE_MSGS_PER_S",
    "fig6_sproc",
    "fig7_rdma",
    "fig8_dds_latency",
    "s9_dds_cores",
    "fig1_parts",
    "fig2_parts",
    "fig3_parts",
    "fig6_parts",
    "fig7_parts",
    "fig8_parts",
    "s9_parts",
    "a1_parts",
    "a2_parts",
    "a3_parts",
    "a4_parts",
    "a5_parts",
    "a6_parts",
    "availability_parts",
    "advisor_online",
    "advisor_static_check",
    "attr_parts",
    "default_slos",
    "obs_parts",
    "query_parts",
    "scatter_scaling",
    "planner_regimes",
    "identity_matrix",
    "stale_routing",
    "scale_parts",
    "sharding_properties",
    "CoreMeter",
    "Sweep",
    "SweepRow",
    "banner",
    "format_table",
]
