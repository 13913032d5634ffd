"""The live telemetry plane: cluster scraping, SLOs, flight recorder.

Three cooperating pieces, one per module:

* :class:`ClusterTelemetry` (:mod:`.collector`) — hands out per-node
  :class:`~repro.obs.telemetry.Telemetry` bundles, scrapes every
  node's registry on a sim-time interval, and derives the
  sliding-window series (shard heat, goodput, latency percentiles,
  host-core occupancy, breaker state) that online consumers read;
* :class:`SloSpec` / :class:`SloMonitor` (:mod:`.slo`) — declarative
  objectives evaluated each scrape window, emitting
  :class:`SloViolation` events;
* :class:`FlightRecorder` (:mod:`.recorder`) — a bounded ring of
  recent snapshots and spans, dumped as a cross-node incident bundle
  when an SLO breach or injected fault fires.

``python -m repro.bench obs --trace-out PATH`` runs the observed
incident scenario and writes its merged cluster trace; the incident
bundles are ``plane.recorder.incidents``.
"""

from .collector import ClusterTelemetry, TelemetrySnapshot
from .recorder import FlightRecorder
from .slo import SloMonitor, SloSpec, SloViolation

__all__ = [
    "ClusterTelemetry",
    "FlightRecorder",
    "SloMonitor",
    "SloSpec",
    "SloViolation",
    "TelemetrySnapshot",
]
