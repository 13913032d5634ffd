"""Latency attribution: critical paths, resource ledgers, advice.

``repro.obs.attr`` answers the question the span substrate only
gestures at: *where did each request's latency go, and was the
placement worth it?*  Three layers:

* :mod:`.criticalpath` — walks finished span trees (including
  cross-node merged traces with ``remote_parent`` links) and
  decomposes each DDS request's end-to-end latency into a *conserved*
  ledger of per-resource segments (DPU Arm, ASIC, NIC wire, PCIe,
  SSD, host CPU, forwarding, retry, queue-wait).  The segments of a
  request always sum to its measured latency — exactly, by
  construction — which the ``AT.*`` bench claims assert.
* :mod:`.online` — :class:`AttributionCollector`, the continuous
  profiler that rides the telemetry plane's scrape loop: per-window
  attribution snapshots, sliding-window top-k bottleneck ranking per
  node/shard, and the breach-window summary the flight recorder
  embeds in incident bundles.
* :mod:`.advisor` — :class:`OffloadAdvisor`, the quantitative
  offload advisor (ROADMAP item 3, v0): reads attribution plus the
  :mod:`repro.hardware.costs` price curves and recommends a
  placement (host / arm / asic) per kernel with estimated latency
  and host-core deltas.

Everything here only *reads* spans and registries — attribution can
never perturb simulated results (``tests/obs/test_zero_perturbation.py``
proves it byte for byte).
"""

from .advisor import OffloadAdvisor, PlacementEstimate, Recommendation
from .criticalpath import (
    CATEGORIES,
    AttributionReport,
    RequestAttribution,
    SpanIndex,
    attribute_request,
    build_report,
    categorize,
)
from .online import AttributionCollector

__all__ = [
    "CATEGORIES",
    "AttributionCollector",
    "AttributionReport",
    "OffloadAdvisor",
    "PlacementEstimate",
    "Recommendation",
    "RequestAttribution",
    "SpanIndex",
    "attribute_request",
    "build_report",
    "categorize",
]
