"""Metric-by-metric regression comparison of two benchmark artifacts.

``python -m repro.bench --compare BASELINE.json CANDIDATE.json``
walks every numeric metric both artifacts carry (every sweep row,
table metric, and nested-config metric) and flags values that drifted
outside a per-metric tolerance band.  The simulation is deterministic,
so simulated metrics from the same code match exactly and any drift
is a real behavior change.  Wall clocks — the only host-time fields
an artifact carries — vary by machine but are budgeted deliberately:
an experiment exceeding 2x its baseline, or the suite 1.5x its total,
is a hard regression.

Tolerances are rules — ``(fnmatch pattern, rel_tol, abs_tol,
severity)`` matched against the metric path
(``fig2.storage_cpu[x=450].kernel_cores``) — first match wins, so a
caller can pin one noisy metric loose while keeping the default
tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ToleranceRule",
    "DEFAULT_TOLERANCES",
    "Delta",
    "ComparisonReport",
    "AttributionShift",
    "attribution_shifts",
    "compare",
    "render_comparison",
    "render_attribution_shifts",
]

OK, WARN, REGRESSION = "ok", "warn", "regression"


@dataclass(frozen=True)
class ToleranceRule:
    """One tolerance band, matched against metric paths."""

    pattern: str                 # fnmatch over the metric path
    rel_tol: float               # allowed |delta| / |baseline|
    abs_tol: float = 1e-12      # slack for near-zero baselines
    severity: str = REGRESSION  # what exceeding the band means
    one_sided: bool = False     # only flag candidate > baseline
                                # (budgets: faster is never a fail)


#: Order matters: first matching rule wins.
DEFAULT_TOLERANCES: Tuple[ToleranceRule, ...] = (
    # The suite-total wall clock is the CI perf budget: the committed
    # baseline records what the whole run costs, and a candidate
    # exceeding 1.5x that total hard-fails the gate.  Tighter than
    # the per-experiment band because per-experiment jitter averages
    # out over the suite; one-sided because a faster suite is the
    # goal, not a regression.
    ToleranceRule("total_wall_clock_s", rel_tol=0.5, abs_tol=2.0,
                  severity=REGRESSION, one_sided=True),
    # Wall clock is intentional now (the fast-path work budgets it):
    # a generous 2x-baseline hard bound catches real perf regressions
    # while absorbing machine-to-machine variance.  The band is
    # symmetric in |drift|, but an improvement can never trip it
    # (|candidate - baseline| < baseline whenever candidate >= 0).
    ToleranceRule("*.wall_clock_s", rel_tol=1.0, abs_tol=1.0,
                  severity=REGRESSION),
    # Simulated metrics are deterministic; allow a small band so
    # intentional calibration tweaks don't trip on rounding.
    ToleranceRule("*", rel_tol=0.05, abs_tol=1e-9),
)


@dataclass
class Delta:
    """One compared metric."""

    path: str
    baseline: Optional[float]
    candidate: Optional[float]
    status: str                  # ok / warn / regression
    note: str = ""

    @property
    def rel_change(self) -> float:
        if self.baseline is None or self.candidate is None:
            return math.nan
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else math.inf
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class ComparisonReport:
    """Everything ``--compare`` found."""

    deltas: List[Delta] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == REGRESSION]

    @property
    def warnings(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == WARN]

    @property
    def ok(self) -> bool:
        return not self.regressions


# -- metric flattening ------------------------------------------------------


def _iter_metrics(artifact: Dict[str, Any],
                  ) -> Iterator[Tuple[str, float]]:
    """Yield ``(path, value)`` for every numeric metric."""
    total = artifact.get("total_wall_clock_s")
    if total is not None:
        yield "total_wall_clock_s", total
    for exp_key in sorted(artifact.get("experiments", {})):
        entry = artifact["experiments"][exp_key]
        wall = entry.get("wall_clock_s")
        if wall is not None:
            yield f"{exp_key}.wall_clock_s", wall
        for part_name in sorted(entry.get("parts", {})):
            part = entry["parts"][part_name]
            prefix = f"{exp_key}.{part_name}"
            kind = part.get("type")
            if kind == "sweep":
                for row in part["rows"]:
                    for name in sorted(row["values"]):
                        yield (f"{prefix}[x={row['x']:g}].{name}",
                               row["values"][name])
            elif kind == "table":
                for name in sorted(part["values"]):
                    yield f"{prefix}.{name}", part["values"][name]
            elif kind == "nested":
                for config in sorted(part["rows"]):
                    for name in sorted(part["rows"][config]):
                        yield (f"{prefix}.{config}.{name}",
                               part["rows"][config][name])


def _rule_for(path: str,
              tolerances: Tuple[ToleranceRule, ...]) -> ToleranceRule:
    for rule in tolerances:
        if fnmatchcase(path, rule.pattern):
            return rule
    return ToleranceRule("*", rel_tol=0.0)


# -- comparison -------------------------------------------------------------


def compare(baseline: Dict[str, Any], candidate: Dict[str, Any],
            tolerances: Tuple[ToleranceRule, ...] = DEFAULT_TOLERANCES,
            ) -> ComparisonReport:
    """Diff two artifacts metric by metric.

    A metric present in the baseline but missing from the candidate
    is a regression (coverage shrank); a metric only the candidate
    has is a warning (new coverage — bless a new baseline to adopt
    it).  NaN in either artifact never matches anything and is
    reported as a warning.
    """
    report = ComparisonReport()
    base_metrics = dict(_iter_metrics(baseline))
    cand_metrics = dict(_iter_metrics(candidate))
    for path in sorted(set(base_metrics) | set(cand_metrics)):
        base = base_metrics.get(path)
        cand = cand_metrics.get(path)
        if base is None:
            report.deltas.append(Delta(
                path, None, cand, WARN,
                note="new metric (not in baseline)"))
            continue
        if cand is None:
            report.deltas.append(Delta(
                path, base, None, REGRESSION,
                note="metric disappeared"))
            continue
        if math.isnan(base) or math.isnan(cand):
            status = OK if (math.isnan(base) and math.isnan(cand)) \
                else WARN
            report.deltas.append(Delta(
                path, base, cand, status,
                note="" if status == OK else "NaN on one side"))
            continue
        rule = _rule_for(path, tolerances)
        allowed = rule.rel_tol * abs(base) + rule.abs_tol
        drift = (cand - base) if rule.one_sided else abs(cand - base)
        if drift <= allowed:
            report.deltas.append(Delta(path, base, cand, OK))
        else:
            report.deltas.append(Delta(
                path, base, cand, rule.severity,
                note=f"drift {drift:.4g} > allowed {allowed:.4g}"))
    return report


# -- regression attribution -------------------------------------------------


@dataclass(frozen=True)
class AttributionShift:
    """How one (node, resource-category) segment's share moved."""

    node: str
    category: str
    baseline_share: float        # fraction of total attributed time
    candidate_share: float
    baseline_s: float
    candidate_s: float

    @property
    def share_delta(self) -> float:
        return self.candidate_share - self.baseline_share

    def describe(self) -> str:
        """One human-readable line naming the moved segment."""
        return (f"{self.share_delta:+.1%} of attributed time moved "
                f"{'into' if self.share_delta >= 0 else 'out of'} "
                f"{self.category} on {self.node} "
                f"({self.baseline_s:.3g}s -> {self.candidate_s:.3g}s)")


def _breakdown(artifact: Dict[str, Any], experiment: str,
               part: str) -> Optional[Dict[str, Dict[str, float]]]:
    entry = artifact.get("experiments", {}).get(experiment)
    if entry is None:
        return None
    payload = entry.get("parts", {}).get(part)
    if payload is None or payload.get("type") != "nested":
        return None
    return payload["rows"]


def attribution_shifts(baseline: Dict[str, Any],
                       candidate: Dict[str, Any],
                       experiment: str = "attr",
                       part: str = "breakdown",
                       ) -> List[AttributionShift]:
    """Per-(node, category) attribution share movement.

    Reads the ``attr`` experiment's per-node resource breakdown from
    both artifacts, normalizes each side to *shares* of its own total
    attributed time (so a uniformly slower run shows no shift), and
    returns every segment sorted by how far its share moved —
    biggest mover first.  Empty when either artifact lacks the
    breakdown.
    """
    base = _breakdown(baseline, experiment, part)
    cand = _breakdown(candidate, experiment, part)
    if base is None or cand is None:
        return []
    base_total = sum(v for row in base.values() for v in row.values())
    cand_total = sum(v for row in cand.values() for v in row.values())
    if base_total <= 0 or cand_total <= 0:
        return []
    shifts = []
    for node in sorted(set(base) | set(cand)):
        categories = (set(base.get(node, {}))
                      | set(cand.get(node, {})))
        for category in sorted(categories):
            base_s = base.get(node, {}).get(category, 0.0)
            cand_s = cand.get(node, {}).get(category, 0.0)
            shifts.append(AttributionShift(
                node, category,
                base_s / base_total, cand_s / cand_total,
                base_s, cand_s))
    shifts.sort(key=lambda s: (-abs(s.share_delta), s.node,
                               s.category))
    return shifts


def render_attribution_shifts(report: ComparisonReport,
                              baseline: Dict[str, Any],
                              candidate: Dict[str, Any],
                              top: int = 3,
                              min_share_delta: float = 0.01,
                              ) -> str:
    """Name the resource segments behind flagged latency/goodput drift.

    When ``--compare`` flags a latency or goodput delta and both
    artifacts carry the ``attr`` breakdown, this turns "p99 regressed
    12%" into "p99 regressed 12%, +9% of it NIC-wire wait on node-2".
    Empty string when there is nothing to attribute.
    """
    flagged = [d for d in report.deltas if d.status != OK
               and any(tag in d.path
                       for tag in ("latency", "goodput"))]
    if not flagged:
        return ""
    movers = [s for s in attribution_shifts(baseline, candidate)
              if abs(s.share_delta) >= min_share_delta][:top]
    if not movers:
        return ""
    lines = ["attribution of the flagged latency/goodput drift:"]
    for delta in flagged[:top]:
        rel = delta.rel_change
        rel_str = "inf" if math.isinf(rel) else f"{rel:+.1%}"
        lines.append(f"  {delta.path}: {rel_str}")
    for shift in movers:
        lines.append(f"  {shift.describe()}")
    return "\n".join(lines)


def render_comparison(report: ComparisonReport,
                      show_ok: bool = False) -> str:
    """The human table ``--compare`` prints."""
    from ..bench.reporting import format_table

    shown = [d for d in report.deltas
             if show_ok or d.status != OK]
    lines = []
    if shown:
        rows = []
        for delta in shown:
            rel = delta.rel_change
            rel_str = "-" if math.isnan(rel) else (
                "inf" if math.isinf(rel) else f"{rel:+.2%}")
            rows.append([
                delta.status,
                delta.path,
                "-" if delta.baseline is None
                else f"{delta.baseline:.6g}",
                "-" if delta.candidate is None
                else f"{delta.candidate:.6g}",
                rel_str,
                delta.note,
            ])
        lines.append(format_table(
            ["status", "metric", "baseline", "candidate", "change",
             "note"], rows))
        lines.append("")
    ok_count = sum(1 for d in report.deltas if d.status == OK)
    lines.append(
        f"{len(report.deltas)} metrics compared: {ok_count} ok, "
        f"{len(report.warnings)} warnings, "
        f"{len(report.regressions)} regressions"
    )
    return "\n".join(lines)
