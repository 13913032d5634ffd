"""AT: latency attribution, conservation, and the offload advisor.

The ``attr`` experiment exercises :mod:`repro.obs.attr` end to end
and feeds the ``AT.*`` claims:

* **conservation** — re-runs the observability scenario (three nodes,
  forwarding, a mid-run DPU crash with failover and migration) with
  an :class:`~repro.obs.attr.AttributionCollector` riding the plane,
  then asserts the tentpole invariant: every attributed request's
  per-resource segments sum to its measured end-to-end latency.
* **breakdown** — the per-node resource ledger (seconds per category)
  an ``--identity`` mismatch reads on both artifacts to name the
  segment whose share moved.
* **advisor** — the offload advisor's static sanity check: for each
  priced kernel/size, *measure* every placement through the Compute
  Engine's own specified execution on one BlueField-2 server (ASIC,
  Arm cores, host cores across PCIe) and require the advisor's
  recommendation to match the measured-best placement.
* **online** — the advisor fed from observed spans: a traced
  ComputeEngine run places kernels on the host, ``build_report``
  turns the spans into a kernel census, and the advisor names the
  cycles an offload would return to the host.

That attribution reads and never perturbs — the scenario with no
plane at all gives byte-identical client outcomes and counters — is
a tier-1 test (``tests/obs/test_zero_perturbation.py``), not a part
of this experiment.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..buffers import SynthBuffer
from ..core.compute import PLACEMENTS, ComputeEngine
from ..hardware import BLUEFIELD2, make_server
from ..obs import (
    AttributionCollector,
    ClusterTelemetry,
    OffloadAdvisor,
    Telemetry,
    build_report,
)
from ..sim import Environment
from ..units import MB, MiB
from .experiments_obs import incident_plane
from .harness import Row, run_cluster
from ..sim.stats import fold_sum

__all__ = [
    "advisor_online",
    "advisor_static_check",
    "attr_unit",
]

#: kernel/size grid for the static advisor check (crc32 has no ASIC,
#: so it also covers the host-stays-best case)
STATIC_KERNELS = ("compress", "crc32")
STATIC_SIZES_MB = (1, 16)

#: the online part's host-placed workload (kernel, nbytes, calls)
ONLINE_WORKLOAD = (
    ("compress", 1 * MiB, 4),
    ("crc32", 1 * MiB, 4),
)


def advisor_static_check() -> Dict[str, Dict[str, float]]:
    """Advisor recommendation vs measured-best static placement.

    Every placement the Compute Engine can run a kernel at is
    measured by specified execution, one run at a time on one idle
    BlueField-2 server.  One nested config per kernel/size;
    ``matches`` is 1.0 when the advisor's argmin placement equals the
    measured argmin (ties broken in placement order by both).
    """
    env = Environment()
    server = make_server(env, name="bf2", dpu_profile=BLUEFIELD2)
    engine = ComputeEngine(server)
    advisor = OffloadAdvisor(server)
    rows: Dict[str, Dict[str, float]] = {}
    for kernel in STATIC_KERNELS:
        for size_mb in STATIC_SIZES_MB:
            nbytes = size_mb * MB
            measured: Dict[str, float] = {}
            for placement in PLACEMENTS:
                request = engine.submit_kernel(
                    kernel, SynthBuffer(nbytes), device=placement)
                if request is not None:
                    env.run()
                    measured[placement] = request.latency
            recommendation = advisor.recommend(kernel, nbytes)
            row: Dict[str, float] = {}
            for placement, seconds in sorted(measured.items()):
                row[f"measured_{placement}_s"] = seconds
            for placement, price in \
                    sorted(recommendation.estimates.items()):
                row[f"est_{placement}_s"] = price.service_s + price.pcie_s
            row["matches"] = float(recommendation.placement
                                   == min(measured, key=measured.get))
            row["host_cycles_saved_per_call"] = \
                recommendation.host_cycles_saved_per_call
            rows[f"{kernel}_{size_mb}mb"] = row
    return rows


def advisor_online() -> Dict[str, Dict[str, float]]:
    """The advisor fed from a traced ComputeEngine's observed spans.

    Every kernel runs pinned to the host CPU; the advisor then reads
    the ``ce.kernel.*`` census out of the attribution report and
    prices the alternatives on the same server —
    ``compress@host_cpu`` should come back "move to ``dpu_asic``"
    with the freed host cycles quantified, while
    ``crc32@host_cpu`` stays put (``already_recommended``).
    """
    env = Environment()
    telemetry = Telemetry(env, tracing=True, name="attr-online")
    server = make_server(env, name="attr", dpu_profile=BLUEFIELD2)
    engine = ComputeEngine(server, telemetry=telemetry)
    for kernel, nbytes, calls in ONLINE_WORKLOAD:
        for _ in range(calls):
            engine.submit_kernel(kernel, SynthBuffer(nbytes),
                                 device="host_cpu")
            env.run()
    report = build_report(telemetry.tracers())
    return OffloadAdvisor(server).advise(report)


def attr_unit(_name: str, row: Row, telemetry: Optional[ClusterTelemetry]
              ) -> Dict[str, object]:
    """AT: the attribution experiment's one row, the ``obs`` incident,
    and every part it reports; ``telemetry=None`` builds the tracing
    plane it needs."""
    plane = incident_plane(telemetry, "attr")
    plane.attribution = AttributionCollector()
    run_cluster(row, plane)

    report = plane.attribution.report()
    totals = report.totals()
    total_s = fold_sum(totals.values())
    forwarded = fold_sum(1 for r in report.requests if r.forwarded)
    failover = fold_sum(1 for r in report.requests if r.failover)
    incidents = plane.recorder.incidents
    conservation = {
        "requests_attributed": float(len(report.requests)),
        "conserved_fraction": report.conserved_fraction(),
        "max_abs_error_s": report.max_conservation_error_s(),
        "forwarded_requests": float(forwarded),
        "failover_requests": float(failover),
        "categories_observed": float(
            fold_sum(1 for v in totals.values() if v > 0)),
        "queue_fraction": (totals.get("queue", 0.0) / total_s
                           if total_s > 0 else 0.0),
        "incidents_with_attribution": float(
            fold_sum(1 for bundle in incidents
                     if "attribution" in bundle)),
        "incidents": float(len(incidents)),
    }

    return {
        "conservation": conservation,
        "breakdown": report.by_node(),
        "advisor": advisor_static_check(),
        "online": advisor_online(),
    }
