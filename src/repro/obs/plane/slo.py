"""Declarative SLOs evaluated over telemetry-plane scrape windows.

An :class:`SloSpec` names one derived series from the plane
(``goodput_ops_per_s``, ``p99_latency_s``, ...), a bound, and a
direction: ``kind="max"`` fires when the value exceeds the bound
(latency ceilings), ``kind="min"`` when it drops below (goodput
floors).  ``min_windows`` consecutive violating scrapes must accrue
before a violation fires, so one noisy window cannot page anyone.

The :class:`SloMonitor` is evaluated by
:meth:`~repro.obs.plane.ClusterTelemetry.scrape` on every window and
keeps the full violation history; the flight recorder uses fresh
violations as its dump trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["SloSpec", "SloMonitor", "SloViolation"]


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a derived plane series."""

    #: human name, e.g. ``"p99_latency_ms"`` or ``"goodput_floor"``
    name: str
    #: derived series to watch, e.g. ``"p99_latency_s"``
    metric: str
    #: the threshold, in the series' own unit
    bound: float
    #: ``"max"`` = violated above the bound, ``"min"`` = below it
    kind: str = "max"
    #: evaluate one node only (None: every node in the series)
    node: Optional[str] = None
    #: consecutive violating windows required before firing
    min_windows: int = 1

    def __post_init__(self):
        if self.kind not in ("max", "min"):
            raise ValueError(f"SLO kind must be max/min, got "
                             f"{self.kind!r}")
        if self.min_windows < 1:
            raise ValueError("min_windows must be >= 1")

    def violated_by(self, value: float) -> bool:
        """Whether one window's value breaks the objective."""
        return (value > self.bound if self.kind == "max"
                else value < self.bound)


@dataclass
class SloViolation:
    """One fired SLO breach (after ``min_windows`` accrued)."""

    spec: str
    node: str
    t_s: float
    version: int
    value: float
    bound: float
    kind: str
    windows: int = 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (flight-recorder bundles)."""
        return {"spec": self.spec, "node": self.node, "t_s": self.t_s,
                "version": self.version, "value": self.value,
                "bound": self.bound, "kind": self.kind,
                "windows": self.windows}


class SloMonitor:
    """Evaluates a set of specs against each scrape's derived series."""

    def __init__(self, specs: Iterable[SloSpec]):
        self.specs: Tuple[SloSpec, ...] = tuple(specs)
        #: every violation ever fired, in firing order
        self.violations: List[SloViolation] = []
        self._streaks: Dict[Tuple[str, str], int] = {}

    def evaluate(self, snapshot) -> List[SloViolation]:
        """Check every spec against one snapshot; return fresh breaches.

        A spec fires once per window while in breach (after its
        ``min_windows`` streak accrues); streaks reset the moment a
        window complies.
        """
        fired: List[SloViolation] = []
        for spec in self.specs:
            series = snapshot.derived.get(spec.metric, {})
            targets = ([spec.node] if spec.node is not None
                       else sorted(series))
            for node in targets:
                value = series.get(node)
                if value is None:
                    continue
                key = (spec.name, node)
                if spec.violated_by(value):
                    streak = self._streaks.get(key, 0) + 1
                    self._streaks[key] = streak
                    if streak >= spec.min_windows:
                        fired.append(SloViolation(
                            spec=spec.name, node=node,
                            t_s=snapshot.t_s,
                            version=snapshot.version, value=value,
                            bound=spec.bound, kind=spec.kind,
                            windows=streak))
                else:
                    self._streaks[key] = 0
        self.violations.extend(fired)
        return fired

    def first_violation(self) -> Optional[SloViolation]:
        """Earliest fired violation."""
        return self.violations[0] if self.violations else None
