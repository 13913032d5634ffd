"""Plan choice for remote scans: pull vs DPU pushdown.

The planner prices both plans with the same calibrated cost model the
simulator uses, at the clocks of the profiles it is handed (the
storage node's DPU, the compute node's host), then picks the cheaper:

* **pull** — every table byte crosses the network (kernel-TCP RX
  cycles on the compute node) and the compute node's cores evaluate
  the predicate/projection;
* **pushdown** — DPU Arm cores evaluate the kernels next to the data
  (slower per byte than host cores!), but only the selected bytes
  cross the network.

The interesting regime is real: pushdown is *not* always better —
with selectivity near 1 and a wide projection, shipping raw pages to
the faster host cores wins, and the planner must say so.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.costs import DEFAULT_COSTS
from ..hardware.profiles import DpuProfile, HostProfile
from ..units import Gbps
from .scan import ScanQuery

__all__ = ["PlanEstimate", "explain", "plan_scan"]


@dataclass(frozen=True)
class PlanEstimate:
    """Cost breakdown of one candidate plan."""

    plan: str                     # "pull" or "pushdown"
    bytes_on_wire: float
    network_s: float
    compute_s: float

    @property
    def total_s(self) -> float:
        return self.network_s + self.compute_s


def _output_fraction(query: ScanQuery, n_columns: int) -> float:
    """Fraction of table bytes the pushdown plan ships back."""
    if query.is_aggregate:
        return 0.0                # a constant-size summary
    selectivity = query.estimated_selectivity
    if query.projection:
        width = len(query.projection) / max(n_columns, 1)
    else:
        width = 1.0
    return selectivity * width


def plan_scan(query: ScanQuery, table_bytes: int, n_columns: int,
              dpu: DpuProfile, host: HostProfile,
              network_bps: float = 100 * Gbps,
              dpu_cores: int = 6, host_cores: int = 4) -> dict:
    """Estimate both plans and choose.

    ``dpu`` is the storage node's DPU profile and ``host`` the compute
    node's host profile: pushdown cycles run at
    ``dpu.arm_frequency_hz``, pull cycles at ``host.frequency_hz``.
    ``dpu_cores`` / ``host_cores`` are the degrees of scan parallelism
    each side can devote (the DPU keeps two of its eight Arm cores for
    the NE/SE pollers; the compute node shares its cores with the rest
    of the DBMS).  Returns ``{"choice", "pull", "pushdown"}`` with
    :class:`PlanEstimate` entries, so callers can ``explain()``.
    """
    if table_bytes < 0:
        raise ValueError("negative table size")
    if dpu_cores < 1 or host_cores < 1:
        raise ValueError("parallelism must be >= 1")
    costs = DEFAULT_COSTS
    network_bytes_per_s = network_bps / 8.0

    # -- pull: all bytes cross; host evaluates filter (+ projection).
    pull_compute_cycles = costs.cpu_cycles("filter", table_bytes,
                                           "host")
    if query.projection and not query.is_aggregate:
        pull_compute_cycles += costs.cpu_cycles(
            "project", table_bytes, "host"
        )
    if query.is_aggregate:
        pull_compute_cycles += costs.cpu_cycles(
            "aggregate", table_bytes, "host"
        )
    pull = PlanEstimate(
        plan="pull",
        bytes_on_wire=float(table_bytes),
        network_s=table_bytes / network_bytes_per_s,
        compute_s=pull_compute_cycles / host.frequency_hz / host_cores,
    )

    # -- pushdown: DPU evaluates; only the output crosses.
    push_cycles = costs.cpu_cycles("filter", table_bytes, "dpu")
    filtered_bytes = table_bytes * query.estimated_selectivity
    if query.is_aggregate:
        push_cycles += costs.cpu_cycles("aggregate", filtered_bytes,
                                        "dpu")
    elif query.projection:
        push_cycles += costs.cpu_cycles("project", filtered_bytes,
                                        "dpu")
    out_bytes = table_bytes * _output_fraction(query, n_columns)
    pushdown = PlanEstimate(
        plan="pushdown",
        bytes_on_wire=out_bytes + 128,      # result + header
        network_s=(out_bytes + 128) / network_bytes_per_s,
        compute_s=push_cycles / dpu.arm_frequency_hz / dpu_cores,
    )

    choice = ("pushdown" if pushdown.total_s <= pull.total_s
              else "pull")
    return {"choice": choice, "pull": pull, "pushdown": pushdown}


def explain(plan: dict) -> str:
    """A human-readable plan comparison."""
    lines = [f"chosen plan: {plan['choice']}"]
    for key in ("pull", "pushdown"):
        estimate = plan[key]
        lines.append(
            f"  {key:9s} wire={estimate.bytes_on_wire:>12,.0f} B  "
            f"net={estimate.network_s * 1e3:8.3f} ms  "
            f"compute={estimate.compute_s * 1e3:8.3f} ms  "
            f"total={estimate.total_s * 1e3:8.3f} ms"
        )
    return "\n".join(lines)
