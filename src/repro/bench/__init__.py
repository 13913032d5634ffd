"""Benchmark harness and the experiment library.

Every paper figure/table (F1–F3, F6–F8, S9), ablation (A1–A6) and
system experiment is a set of rows, the runner of one row and an
assembly of its parts; ``python -m repro.bench`` runs them and
:mod:`repro.obs.claims` holds the reproduction's shape contract over
what they return.  Everything here reports *simulated* numbers — host
time is ``hostbench``'s.
"""

from .experiments_ablation import (
    A5_ROWS,
    a5_parts,
    ablation_caching,
    ablation_fusion,
    ablation_persistence,
    ablation_portability,
    ablation_scheduling,
)
from .experiments_availability import (
    availability,
    availability_run,
    availability_tcp_blackhole,
)
from .experiments_attr import (
    advisor_online,
    advisor_static_check,
    attr_unit,
)
from .experiments_obs import default_slos, obs_unit
from .experiments_slo import slo_parts
from .experiments_query import (
    identity_matrix,
    planner_regimes,
    scatter_scaling,
    stale_routing,
)
from .experiments_scale import scale_parts, sharding_properties
from .experiments_micro import (
    FIG2_ROWS,
    FIG3_ROWS,
    fig1_compression,
    fig1_real_bytes_checkpoint,
    fig2_parts,
    fig3_parts,
)
from .experiments_system import (
    LINE_RATE_MSGS_PER_S,
    S9_ROWS,
    fig6_configs,
    fig6_sproc,
    fig7_rdma,
    fig8_dds_latency,
    s9_parts,
)
from .harness import CoreMeter, Sweep, SweepRow
from .reporting import banner, format_table

__all__ = [
    "A5_ROWS",
    "FIG2_ROWS",
    "FIG3_ROWS",
    "S9_ROWS",
    "ablation_caching",
    "ablation_fusion",
    "ablation_persistence",
    "ablation_portability",
    "ablation_scheduling",
    "availability",
    "availability_run",
    "availability_tcp_blackhole",
    "fig1_compression",
    "fig1_real_bytes_checkpoint",
    "LINE_RATE_MSGS_PER_S",
    "fig6_configs",
    "fig6_sproc",
    "fig7_rdma",
    "fig8_dds_latency",
    "fig2_parts",
    "fig3_parts",
    "s9_parts",
    "a5_parts",
    "advisor_online",
    "advisor_static_check",
    "attr_unit",
    "default_slos",
    "obs_unit",
    "scatter_scaling",
    "planner_regimes",
    "identity_matrix",
    "stale_routing",
    "scale_parts",
    "slo_parts",
    "sharding_properties",
    "CoreMeter",
    "Sweep",
    "SweepRow",
    "banner",
    "format_table",
]
