"""The quantitative offload advisor: what each placement would cost.

A view over :func:`repro.hardware.costs.server_prices` — the prices
the Compute Engine's scheduled execution minimizes — for one server's
own profiles, in the CE's placement names (``dpu_asic``, ``dpu_cpu``,
``host_cpu``, ``pcie_*``).  An estimate is the idle completion time,
``service_s + pcie_s``; the engine adds only its live backlog factor
on top, so on a fresh, idle engine the recommendation *is* the
placement scheduled execution would pick.  Beside it the advisor reports the
two deltas an operator trades on: estimated latency change and host
cycles freed per call.

Fed an :class:`~repro.obs.attr.criticalpath.AttributionReport` (the
online path), it turns the observed ``ce.kernel.*`` span census into
per-kernel recommendations sized by the *measured* byte and call
volumes — "move ``compress`` (1 MiB mean, 4 calls) from ``host_cpu``
to ``dpu_asic``: ~10x faster, frees ~21M host cycles per call".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...hardware.costs import PlacementPrice, server_prices

__all__ = ["Recommendation", "OffloadAdvisor"]


def _idle_s(price: PlacementPrice) -> float:
    return price.service_s + price.pcie_s


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one kernel at one payload size."""

    placement: str               # the latency-argmin placement
    estimates: Dict[str, PlacementPrice]
    #: idle latency(recommended) - idle latency(host_cpu):
    #: negative = faster
    latency_delta_vs_host_s: float
    #: host cycles freed per call by moving off the host
    host_cycles_saved_per_call: float


class OffloadAdvisor:
    """Prices ``server``'s kernel placements, recommends the cheapest."""

    def __init__(self, server):
        self.server = server

    def estimate(self, kernel: str, nbytes: float
                 ) -> Dict[str, PlacementPrice]:
        """The price of every placement that can run ``kernel``."""
        return server_prices(self.server, kernel, nbytes)

    def recommend(self, kernel: str, nbytes: float) -> Recommendation:
        """The idle-latency argmin, ties broken in
        :data:`~repro.hardware.costs.PLACEMENTS` order as the CE
        breaks them."""
        estimates = self.estimate(kernel, nbytes)
        best = min(estimates, key=lambda p: _idle_s(estimates[p]))
        host = estimates["host_cpu"]
        return Recommendation(
            placement=best,
            estimates=estimates,
            latency_delta_vs_host_s=(_idle_s(estimates[best])
                                     - _idle_s(host)),
            host_cycles_saved_per_call=(host.host_cycles
                                        - estimates[best].host_cycles),
        )

    # -- the online path -----------------------------------------------------

    def advise(self, report) -> Dict[str, Dict[str, float]]:
        """Recommendations from an attribution report's kernel census.

        One row per observed ``(kernel, device)`` aggregate — keyed
        ``"kernel@device"`` — sized by the *measured* mean payload.
        Numeric-only rows, so the result drops straight into a bench
        artifact's nested part.
        """
        rows: Dict[str, Dict[str, float]] = {}
        for (kernel, device), obs in sorted(report.kernels.items()):
            try:
                rec = self.recommend(kernel, obs.mean_bytes)
            except KeyError:
                continue            # a custom kernel we cannot price
            best_s = _idle_s(rec.estimates[rec.placement])
            current = rec.estimates.get(device)
            rows[f"{kernel}@{device}"] = {
                "calls": float(obs.calls),
                "mean_bytes": obs.mean_bytes,
                "observed_mean_s": obs.mean_latency_s,
                "recommended_" + rec.placement: 1.0,
                "est_latency_s": best_s,
                "est_latency_delta_vs_host_s":
                    rec.latency_delta_vs_host_s,
                "host_cycles_saved_per_call":
                    rec.host_cycles_saved_per_call,
                "already_recommended": float(device == rec.placement),
                "est_gain_vs_current_s": (
                    _idle_s(current) - best_s
                    if current is not None else 0.0),
            }
        return rows
