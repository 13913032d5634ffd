"""Continuous attribution riding the telemetry plane's scrape loop.

An :class:`AttributionCollector` hangs off a
:class:`~repro.obs.plane.ClusterTelemetry` (``plane.attribution = …``)
the same way the SLO monitor and flight recorder do.  Each scrape it
*incrementally* scans every node's newly finished spans — the
``Tracer.spans`` list is append-only in finish order, so a per-node
cursor suffices — attributes any request root that just closed, and
folds the resulting ledgers into:

* per-window attribution snapshots (category seconds per node),
  bounded by the plane's sliding ``window``;
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
    REQUEST_ROOT,
    AttributionReport,
    KernelObservation,
    RequestAttribution,
    SpanIndex,
    attribute_request,
)

__all__ = ["AttributionCollector"]


class AttributionCollector:
    """Incremental, windowed request attribution for one plane."""

    def __init__(self, window: int = 8):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        #: every attributed request, in root-finish scan order
        self.requests: List[RequestAttribution] = []
        #: (kernel, device) -> cumulative kernel observation
        self.kernels: Dict[Tuple[str, str], KernelObservation] = {}
        #: last ``window`` per-scrape summaries, oldest first; each is
        #: {node: {category: seconds}} for roots finished that window
        self.windows: deque = deque(maxlen=window)
        self._cursors: Dict[str, int] = {}
        #: every span seen so far; each scrape adds only the new ones
        self._index = SpanIndex()

    # -- the scrape hook -----------------------------------------------------

    def collect(self, plane) -> Dict[str, Dict[str, float]]:
        """Process spans finished since the last scrape.

        Called by :meth:`ClusterTelemetry.scrape`; safe to call by
        hand (tests, one-shot post-run attribution).  Returns this
        window's ``{node: {category: seconds}}`` summary.
        """
        roots: List[Tuple[str, int]] = []
        batches = []
        for node, tracer in plane.tracers():
            cursor = self._cursors.get(node, 0)
            spans = tracer.spans          # finished, append-only
            finished = spans[cursor:]
            for span in finished:
                if span.name == REQUEST_ROOT:
                    roots.append((node, span.span_id))
                elif span.name.startswith("ce.kernel."):
                    self._observe_kernel(span)
            self._cursors[node] = len(spans)
            batches.append((node, finished))
            batches.append((node, tracer.open_spans()))
        # Descendants always finish before (or adopt across nodes no
        # later than) the scrape that sees their root, so the index
        # only ever needs the spans that appeared since the last one.
        index = self._index
        index.extend(batches)

        window_summary: Dict[str, Dict[str, float]] = {}
        for root_key in roots:
            if index.parent_key(root_key) is not None:
                continue          # an adopted remote subtree
            attribution = attribute_request(index, root_key)
            self.requests.append(attribution)
            ledger = window_summary.setdefault(attribution.node, {})
            for category, seconds in attribution.segments.items():
                ledger[category] = ledger.get(category, 0.0) + seconds
        self.windows.append(window_summary)
        return window_summary

    def _observe_kernel(self, span) -> None:
        kernel = span.name[len("ce.kernel."):]
        device = str(span.attrs.get("device", "unknown"))
        observation = self.kernels.get((kernel, device))
        if observation is None:
            observation = self.kernels[(kernel, device)] = \
                KernelObservation(kernel, device)
        observation.add(span)

    # -- queries -------------------------------------------------------------

    def report(self) -> AttributionReport:
        """Everything attributed so far, as one report."""
        return AttributionReport(list(self.requests),
                                 dict(self.kernels))

    def top_bottlenecks(self, k: int = 5
                        ) -> List[Tuple[str, str, float]]:
        """Top-k ``(node, category, seconds)`` over the sliding window.

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
        return rows[:k]

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
