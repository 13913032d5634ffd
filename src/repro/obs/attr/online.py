"""Continuous attribution riding the telemetry plane's scrape loop.

An :class:`AttributionCollector` hangs off a
:class:`~repro.obs.plane.ClusterTelemetry` (``plane.attribution = …``)
the same way the SLO monitor and flight recorder do.  Each scrape it
*incrementally* scans every node's newly finished spans — the
``Tracer.spans`` list is append-only in finish order, so a per-node
cursor suffices — attributes any request root that just closed, and
folds the resulting ledgers into:

* per-window attribution snapshots (category seconds per node),
  the last :data:`WINDOW` of them;
* a cumulative :class:`~.criticalpath.AttributionReport`;
* the sliding-window top-k bottleneck ranking
  (:meth:`top_bottlenecks`) that the flight recorder embeds in
  incident bundles, so an SLO page answers *where did the time go*.

Like the rest of the plane, the collector only ever reads spans; it
never yields, sleeps, or charges cycles — attribution-on runs stay
byte-identical to attribution-off runs
(``tests/obs/test_zero_perturbation.py`` asserts this).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Tuple

from .criticalpath import (
    TOP_K,
    AttributionReport,
    KernelObservation,
    RequestAttribution,
    SpanTable,
    attribute_request,
    _observe_kernel,
)

__all__ = ["AttributionCollector"]

#: scrape windows the sliding ranking sums over
WINDOW = 8


class AttributionCollector:
    """Incremental, windowed request attribution for one plane."""

    def __init__(self):
        #: every attributed request, in root-finish scan order
        self.requests: List[RequestAttribution] = []
        #: (kernel, device) -> cumulative kernel observation
        self.kernels: Dict[Tuple[str, str], KernelObservation] = {}
        #: last ``WINDOW`` per-scrape summaries, oldest first; each is
        #: {node: {category: seconds}} for roots finished that window
        self.windows: deque = deque(maxlen=WINDOW)
        self._cursors: Dict[str, int] = {}
        #: every span seen so far; each scrape adds only the new ones
        self._table = SpanTable()

    # -- the scrape hook -----------------------------------------------------

    def collect(self, plane) -> Dict[str, Dict[str, float]]:
        """Process spans finished since the last scrape.

        Called by :meth:`ClusterTelemetry.scrape`; safe to call by
        hand (tests, one-shot post-run attribution).  Returns this
        window's ``{node: {category: seconds}}`` summary.
        """
        batches = []
        kernels = self.kernels
        for node, tracer in plane.tracers():
            cursor = self._cursors.get(node, 0)
            spans = tracer.spans          # finished, append-only
            finished = spans[cursor:]
            for span in finished:
                if span.name.startswith("ce.kernel."):
                    _observe_kernel(kernels, span)
            self._cursors[node] = len(spans)
            batches.append((node, finished))
            batches.append((node, tracer.open_spans()))
        # Descendants always finish before (or adopt across nodes no
        # later than) the scrape that sees their root, so the table
        # only ever needs the spans that appeared since the last one;
        # the roots come back in finish order, node by node.
        table = self._table
        window_summary: Dict[str, Dict[str, float]] = {}
        for node, roots in table.extend(batches).items():
            ledger = window_summary.setdefault(node, {})
            for root in roots:
                attribution = attribute_request(table, node, root)
                self.requests.append(attribution)
                for category, seconds in attribution.segments.items():
                    ledger[category] = ledger.get(category, 0.0) + seconds
        self.windows.append(window_summary)
        return window_summary

    # -- queries -------------------------------------------------------------

    def report(self) -> AttributionReport:
        """Everything attributed so far, as one report."""
        return AttributionReport(list(self.requests),
                                 dict(self.kernels))

    def top_bottlenecks(self) -> List[Tuple[str, str, float]]:
        """Top :data:`TOP_K` ``(node, category, seconds)`` over the
        sliding window.

        Deterministic: ties break by ``(node, category)``.
        """
        sums: Dict[Tuple[str, str], float] = {}
        for summary in self.windows:
            for node, ledger in summary.items():
                for category, seconds in ledger.items():
                    key = (node, category)
                    sums[key] = sums.get(key, 0.0) + seconds
        rows = [(node, category, seconds)
                for (node, category), seconds in sums.items()]
        rows.sort(key=lambda row: (-row[2], row[0], row[1]))
        return rows[:TOP_K]

    def window_summary(self) -> Dict[str, Any]:
        """The breach-window summary flight recorder bundles embed."""
        return {
            "requests_attributed": len(self.requests),
            "windows": len(self.windows),
            "top_bottlenecks": [
                {"node": node, "category": category, "seconds": s}
                for node, category, s in self.top_bottlenecks()
            ],
            "latest_window": (dict(self.windows[-1])
                              if self.windows else {}),
        }

    def __repr__(self) -> str:
        return (f"AttributionCollector({len(self.requests)} requests, "
                f"{len(self.windows)} windows)")
