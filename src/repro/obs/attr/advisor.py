"""The quantitative offload advisor (v0): host vs Arm vs ASIC.

ROADMAP item 3 asks for placement decisions *earned from measured
per-resource breakdowns* instead of hard-coded.  This advisor is the
first cut: it prices every feasible placement of a DP kernel from
the calibrated cost tables (:mod:`repro.hardware.costs`) and the DPU
profile's accelerator specs, and recommends the latency-minimizing
one together with the two deltas an operator actually trades on —
estimated latency change and host cycles freed per call.

Fed an :class:`~repro.obs.attr.criticalpath.AttributionReport` (the
online path), it turns the observed ``ce.kernel.*`` span census into
per-kernel recommendations sized by the *measured* byte and call
volumes — "move ``compress`` (1 MiB mean, 40 calls) from the host to
the ASIC: ~9x faster, frees ~21M host cycles per call".

The estimates intentionally mirror the simulation's own price model
(cycles/frequency for cores, setup + bytes/throughput for ASICs), so
the ``attr`` bench experiment can hold the advisor to a hard claim:
its recommendation must match the measured-best static placement for
every kernel/size it is asked about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...hardware.costs import DEFAULT_COSTS
from ...hardware.profiles import (
    BLUEFIELD2,
    EPYC_HOST,
)

__all__ = ["PlacementEstimate", "Recommendation", "OffloadAdvisor"]

#: the placements the v0 advisor prices.
PLACEMENTS = ("host", "arm", "asic")


@dataclass(frozen=True)
class PlacementEstimate:
    """The priced cost of one kernel placement."""

    placement: str               # "host" | "arm" | "asic"
    latency_s: float             # estimated per-call latency
    host_cycles: float           # host cycles consumed per call


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one kernel at one payload size."""

    kernel: str
    nbytes: float
    placement: str               # the latency-argmin placement
    estimates: Dict[str, PlacementEstimate]
    #: latency_s(recommended) - latency_s(host): negative = faster
    latency_delta_vs_host_s: float
    #: host cycles freed per call by moving off the host
    host_cycles_saved_per_call: float


class OffloadAdvisor:
    """Prices kernel placements and recommends the cheapest."""

    def __init__(self):
        self.costs = DEFAULT_COSTS
        self.host = EPYC_HOST
        self.dpu = BLUEFIELD2

    # -- pricing -------------------------------------------------------------

    def estimate(self, kernel: str, nbytes: float
                 ) -> Dict[str, PlacementEstimate]:
        """Price every feasible placement of ``kernel`` at ``nbytes``.

        Core placements charge ``(base + per_byte * n) / frequency``;
        the ASIC (when this DPU profile carries the kernel's
        accelerator kind) charges ``setup + n / throughput``.  A
        kernel without an accelerator simply has no ``"asic"`` entry.
        """
        record = self.costs.kernel(kernel)
        estimates = {
            "host": PlacementEstimate(
                "host",
                self.costs.cpu_cycles(kernel, int(nbytes), "host")
                / self.host.frequency_hz,
                self.costs.cpu_cycles(kernel, int(nbytes), "host"),
            ),
            "arm": PlacementEstimate(
                "arm",
                self.costs.cpu_cycles(kernel, int(nbytes), "dpu")
                / self.dpu.arm_frequency_hz,
                0.0,
            ),
        }
        if record.asic_kind is not None:
            spec = self.dpu.accelerator_spec(record.asic_kind)
            if spec is not None:
                estimates["asic"] = PlacementEstimate(
                    "asic",
                    spec.setup_latency_s
                    + nbytes / spec.throughput_bytes_per_s,
                    0.0,
                )
        return estimates

    def recommend(self, kernel: str, nbytes: float) -> Recommendation:
        """The latency-argmin placement with its deltas.

        Ties break toward the placement order host < arm < asic only
        through the deterministic sort key (latency, placement name),
        so repeated runs always agree.
        """
        estimates = self.estimate(kernel, nbytes)
        best = min(estimates.values(),
                   key=lambda e: (e.latency_s, e.placement))
        host = estimates["host"]
        return Recommendation(
            kernel=kernel,
            nbytes=nbytes,
            placement=best.placement,
            estimates=estimates,
            latency_delta_vs_host_s=best.latency_s - host.latency_s,
            host_cycles_saved_per_call=(host.host_cycles
                                        - best.host_cycles),
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
            current = _DEVICE_TO_PLACEMENT.get(device)
            current_est = (rec.estimates.get(current)
                           if current else None)
            rows[f"{kernel}@{device}"] = {
                "calls": float(obs.calls),
                "mean_bytes": obs.mean_bytes,
                "observed_mean_s": obs.mean_latency_s,
                "recommended_" + rec.placement: 1.0,
                "est_latency_s": rec.estimates[rec.placement]
                .latency_s,
                "est_latency_delta_vs_host_s":
                    rec.latency_delta_vs_host_s,
                "host_cycles_saved_per_call":
                    rec.host_cycles_saved_per_call,
                "already_recommended": float(
                    current == rec.placement),
                "est_gain_vs_current_s": (
                    current_est.latency_s
                    - rec.estimates[rec.placement].latency_s
                    if current_est is not None else 0.0),
            }
        return rows

    def __repr__(self) -> str:
        return (f"OffloadAdvisor(host={self.host.name}, "
                f"dpu={self.dpu.name})")


#: CE placement attribute -> advisor placement name.
_DEVICE_TO_PLACEMENT: Dict[str, Optional[str]] = {
    "host_cpu": "host",
    "dpu_cpu": "arm",
    "dpu_asic": "asic",
}
