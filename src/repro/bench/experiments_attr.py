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
  priced kernel/size, *measure* every placement the way Figure 1
  does (host EPYC core, Arm core, BlueField-2 ASIC) and require the
  advisor's recommendation to match the measured-best placement.
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

from ..baselines import HostComputeBaseline
from ..buffers import SynthBuffer
from ..core.compute import ComputeEngine
from ..hardware import ARM_HOST, BLUEFIELD2, EPYC_HOST, make_server
from ..obs import (
    AttributionCollector,
    ClusterTelemetry,
    FlightRecorder,
    OffloadAdvisor,
    SloMonitor,
    Telemetry,
    build_report,
)
from ..sim import Environment
from ..units import MB, MiB
from .experiments_obs import RETAIN_S, default_slos, obs_scenario

__all__ = [
    "advisor_online",
    "advisor_static_check",
    "attr_parts",
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


def _measure_placements(kernel: str, nbytes: int
                        ) -> Dict[str, float]:
    """Figure-1-style measured latency of each feasible placement."""
    env = Environment()
    epyc = make_server(env, name="epyc", host_profile=EPYC_HOST)
    arm = make_server(env, name="arm", host_profile=ARM_HOST)
    arm.host_cpu.cpu_class = "dpu"     # charge A72 cycles/byte
    dpu_server = make_server(env, name="bf2", dpu_profile=BLUEFIELD2)

    timings: Dict[str, float] = {}

    def core_job(path, tag):
        started = env.now
        yield from path.run_kernel(kernel, SynthBuffer(nbytes))
        timings[tag] = env.now - started

    env.process(core_job(HostComputeBaseline(epyc.host_cpu), "host"))
    env.process(core_job(HostComputeBaseline(arm.host_cpu), "arm"))
    asic_kind = dpu_server.costs.kernel(kernel).asic_kind
    if asic_kind and dpu_server.dpu.has_accelerator(asic_kind):
        asic = dpu_server.dpu.accelerator(asic_kind)

        def asic_job():
            started = env.now
            yield from asic.run_job(nbytes)
            timings["asic"] = env.now - started

        env.process(asic_job())
    env.run()
    return timings


def advisor_static_check() -> Dict[str, Dict[str, float]]:
    """Advisor recommendation vs measured-best static placement.

    One nested config per kernel/size; ``matches`` is 1.0 when the
    advisor's argmin placement equals the measured argmin (same
    deterministic tie-break: latency, then placement name).
    """
    advisor = OffloadAdvisor()
    rows: Dict[str, Dict[str, float]] = {}
    for kernel in STATIC_KERNELS:
        for size_mb in STATIC_SIZES_MB:
            nbytes = size_mb * MB
            measured = _measure_placements(kernel, nbytes)
            recommendation = advisor.recommend(kernel, nbytes)
            measured_best = min(
                measured.items(), key=lambda kv: (kv[1], kv[0]))[0]
            row: Dict[str, float] = {}
            for placement, seconds in sorted(measured.items()):
                row[f"measured_{placement}_s"] = seconds
            for placement, estimate in \
                    sorted(recommendation.estimates.items()):
                row[f"est_{placement}_s"] = estimate.latency_s
            row["matches"] = float(
                recommendation.placement == measured_best)
            row["host_cycles_saved_per_call"] = \
                recommendation.host_cycles_saved_per_call
            rows[f"{kernel}_{size_mb}mb"] = row
    return rows


def advisor_online() -> Dict[str, Dict[str, float]]:
    """The advisor fed from a traced ComputeEngine's observed spans.

    Every kernel runs pinned to the host CPU; the advisor then reads
    the ``ce.kernel.*`` census out of the attribution report and
    prices the alternatives — ``compress@host_cpu`` should come back
    "move to the ASIC" with the freed host cycles quantified, while
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
    report = build_report([("attr", telemetry.tracer)])
    return OffloadAdvisor().advise(report)


def attr_parts(telemetry: Optional[ClusterTelemetry]
               ) -> Dict[str, object]:
    """AT: the full attribution experiment for the artifact;
    ``telemetry=None`` builds the tracing plane it needs."""
    plane = (telemetry if telemetry is not None
             else ClusterTelemetry(tracing=True, name="attr"))
    plane.monitor = SloMonitor(default_slos())
    plane.recorder = FlightRecorder(retain_s=RETAIN_S)
    plane.attribution = AttributionCollector()
    obs_scenario(plane)

    report = plane.attribution.report()
    totals = report.totals()
    total_s = sum(totals.values())
    forwarded = sum(1 for r in report.requests if r.forwarded)
    failover = sum(1 for r in report.requests if r.failover)
    incidents = plane.recorder.incidents
    conservation = {
        "requests_attributed": float(len(report.requests)),
        "conserved_fraction": report.conserved_fraction(),
        "max_abs_error_s": report.max_conservation_error_s(),
        "forwarded_requests": float(forwarded),
        "failover_requests": float(failover),
        "categories_observed": float(
            sum(1 for v in totals.values() if v > 0)),
        "queue_fraction": (totals.get("queue", 0.0) / total_s
                           if total_s > 0 else 0.0),
        "incidents_with_attribution": float(
            sum(1 for bundle in incidents
                if "attribution" in bundle)),
        "incidents": float(len(incidents)),
    }

    return {
        "conservation": conservation,
        "breakdown": report.by_node(),
        "advisor": advisor_static_check(),
        "online": advisor_online(),
    }
