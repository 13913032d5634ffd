"""The SLO flight recorder: bounded history, incident bundles.

A :class:`FlightRecorder` rides the telemetry plane's scrape loop: it
keeps a ring of the last ``retain_s`` sim-seconds of snapshots, and
when a trigger fires — an SLO breach or an injected fault — it dumps
a cross-node *incident bundle*: the retained snapshot window, the
violations that fired, and each node's recent spans (anything that
ended inside the retention window, plus everything still open).  The
bundle is a plain JSON-able dict, so a nightly CI job can upload one
as a build artifact.

Bundle layout (``schema repro.obs/incident`` v1)::

    {
      "schema": "repro.obs/incident", "schema_version": 1,
      "reason": "slo_violation" | "fault_injected",
      "t_s": 4.5e-3, "retain_s": 2e-3,
      "violations": [{spec, node, t_s, version, value, ...}],
      "snapshots": [TelemetrySnapshot.to_dict(), ...],
      "nodes": {
        "node0": {"spans": [Span.to_dict(), ...], "open_spans": 2},
        ...
      },
      "attribution": {...}   # breach-window attribution summary,
                             # present when plane.attribution is set
    }
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["FlightRecorder"]

SCHEMA_NAME = "repro.obs/incident"
SCHEMA_VERSION = 1

#: incident bundles one recorder keeps before it refuses more
MAX_INCIDENTS = 8


class FlightRecorder:
    """Bounded telemetry history that dumps on incident triggers."""

    def __init__(self, retain_s: float = 2.0e-3):
        if retain_s <= 0:
            raise ValueError("retain_s must be positive")
        self.retain_s = retain_s
        self._ring: deque = deque()
        #: captured incident bundles, in trigger order (bounded)
        self.incidents: List[Dict[str, Any]] = []

    # -- history -------------------------------------------------------------

    def observe(self, snapshot) -> None:
        """Add one scrape to the ring; age out anything too old."""
        self._ring.append(snapshot)
        horizon = snapshot.t_s - self.retain_s
        while self._ring and self._ring[0].t_s < horizon:
            self._ring.popleft()

    # -- incidents -----------------------------------------------------------

    def trigger(self, reason: str, plane,
                violations=()) -> Optional[Dict[str, Any]]:
        """Dump a cross-node incident bundle (None once at capacity).

        ``plane`` is the :class:`~repro.obs.plane.ClusterTelemetry`
        whose nodes supply the span history; capacity bounds both
        memory and bundle spam during a sustained breach.
        """
        if len(self.incidents) >= MAX_INCIDENTS:
            return None
        now = self._ring[-1].t_s if self._ring else 0.0
        horizon = now - self.retain_s
        nodes: Dict[str, Dict[str, Any]] = {}
        for name, telemetry in sorted(plane.nodes.items()):
            tracer = telemetry.tracer
            if not tracer.enabled:
                nodes[name] = {"spans": [], "open_spans": 0}
                continue
            recent = []
            open_spans = 0
            for span in tracer.all_spans():
                if span.end_s is None:
                    open_spans += 1
                    recent.append(span.to_dict())
                elif span.end_s >= horizon:
                    recent.append(span.to_dict())
            nodes[name] = {"spans": recent, "open_spans": open_spans}
        bundle = {
            "schema": SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "reason": reason,
            "t_s": now,
            "retain_s": self.retain_s,
            "violations": [violation.to_dict()
                           for violation in violations],
            "snapshots": [snapshot.to_dict()
                          for snapshot in self._ring],
            "nodes": nodes,
        }
        attribution = getattr(plane, "attribution", None)
        if attribution is not None:
            bundle["attribution"] = attribution.window_summary()
        self.incidents.append(bundle)
        return bundle

    def __repr__(self) -> str:
        return (f"FlightRecorder(retain={self.retain_s:g}s, "
                f"{len(self._ring)} snapshots, "
                f"{len(self.incidents)} incidents)")
