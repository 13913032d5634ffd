"""Server-cost accounting: turning cores saved into dollars.

The paper's motivation is *performance and cost*: "moving data at a
higher rate consumes significantly more CPU resources", and DPUs
promise to cut that bill because energy-efficient Arm cores plus
ASICs are far cheaper per unit of data-path work than host cores.

This module prices the simulator's "cores consumed" outputs with a
transparent amortized-hardware model (public list-price ballparks,
overridable), so benchmarks can report the cost side of the S9 claim.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostAssumptions", "DEFAULT_COST_ASSUMPTIONS",
           "storage_server_cost"]

_HOURS_PER_YEAR = 24 * 365


@dataclass(frozen=True)
class CostAssumptions:
    """Amortized hardware + power prices.

    Defaults: a dual-socket EPYC server (~$20 K, 128 cores) and a
    BlueField-2-class DPU (~$2 K) amortized over 4 years, plus power
    at $0.10/kWh with typical per-core draw.  Deliberately coarse —
    the point is the *ratio* between host-core work and DPU work.
    """

    host_server_dollars: float = 20_000.0
    host_cores: int = 128
    dpu_dollars: float = 2_000.0
    amortization_years: float = 4.0
    power_dollars_per_kwh: float = 0.10
    host_watts_per_core: float = 3.5
    dpu_watts_total: float = 30.0

    def host_core_hour_dollars(self) -> float:
        """Amortized + power cost of one host core for one hour."""
        capital = (
            self.host_server_dollars
            / (self.host_cores * self.amortization_years
               * _HOURS_PER_YEAR)
        )
        power = (self.host_watts_per_core / 1000.0
                 * self.power_dollars_per_kwh)
        return capital + power

    def dpu_hour_dollars(self) -> float:
        """Amortized + power cost of one whole DPU for one hour."""
        capital = self.dpu_dollars / (self.amortization_years
                                      * _HOURS_PER_YEAR)
        power = (self.dpu_watts_total / 1000.0
                 * self.power_dollars_per_kwh)
        return capital + power


DEFAULT_COST_ASSUMPTIONS = CostAssumptions()


def storage_server_cost(host_cores_consumed: float,
                        uses_dpu: bool) -> float:
    """Dollars per hour of the data-path resources in use.

    Host cores are charged fractionally (they are fungible with other
    tenants' work); a DPU is charged whole when present (it is a
    dedicated board).
    """
    if host_cores_consumed < 0:
        raise ValueError("negative core count")
    assumptions = DEFAULT_COST_ASSUMPTIONS
    cost = host_cores_consumed * assumptions.host_core_hour_dollars()
    if uses_dpu:
        cost += assumptions.dpu_hour_dollars()
    return cost
