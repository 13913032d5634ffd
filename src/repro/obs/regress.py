"""Exact comparison of two benchmark artifacts.

``python -m repro.bench [ids...] --identity BASELINE [CANDIDATE]`` is
the one way two artifacts are compared.  The simulation is
deterministic, so a value either matches exactly or is a behaviour
change: there is no tolerance band, and a metric or experiment on one
side only is a mismatch like any other.  :func:`differences` compares
what :func:`~repro.obs.artifact.strip_volatile` keeps and reports each
disagreement by metric path (``scale.rack.64.dpu_cores_per_node``).
When both sides carry the ``attr`` experiment's per-node breakdown,
:func:`attribution_shifts` names the resource segments whose share of
attributed time moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .artifact import strip_volatile
from ..sim.stats import fold_sum

__all__ = ["Difference", "AttributionShift", "attribution_shifts",
           "differences", "render_differences"]


@dataclass(frozen=True)
class Difference:
    """One path at which two artifacts disagree."""

    path: str
    baseline: Any                # None: absent on that side
    candidate: Any

    def describe(self) -> str:
        """``path: baseline -> candidate``, floats at full precision."""
        old, new = ("absent" if value is None else str(value)
                    for value in (self.baseline, self.candidate))
        return f"{self.path}: {old} -> {new}"


# -- flattening ---------------------------------------------------------------


def _iter_metrics(artifact: Dict[str, Any]) -> Iterator[Tuple[str, Any]]:
    """Yield ``(path, value)`` for everything schema 1 lets an artifact
    pin: each numeric metric under ``experiment.part[...]``, and around
    them the schema, the provenance inputs, titles and sweep axes."""
    for name in ("schema", "schema_version"):
        yield name, artifact.get(name)
    for name, value in artifact.get("provenance", {}).items():
        yield f"provenance.{name}", value
    for exp_key, entry in artifact.get("experiments", {}).items():
        yield f"{exp_key}.title", entry.get("title")
        for part_name, part in entry.get("parts", {}).items():
            prefix = f"{exp_key}.{part_name}"
            kind = part.get("type")
            if kind == "sweep":
                # label and row order; the rows below are keyed by x
                yield f"{prefix}.x", [part["x_label"]] + [
                    row["x"] for row in part["rows"]]
                for row in part["rows"]:
                    for name, value in row["values"].items():
                        yield f"{prefix}[x={row['x']:g}].{name}", value
            elif kind == "table":
                for name, value in part["values"].items():
                    yield f"{prefix}.{name}", value
            elif kind == "nested":
                for config, values in part["rows"].items():
                    for name, value in values.items():
                        yield f"{prefix}.{config}.{name}", value


def differences(baseline: Dict[str, Any], candidate: Dict[str, Any],
                ) -> List[Difference]:
    """Every path at which the two artifacts disagree, sorted; empty
    means the candidate reproduces the baseline exactly.

    An experiment only one side ran is one difference, not one per
    metric it holds; NaN equals NaN (a value the run produced) and
    nothing else.
    """
    base, cand = (strip_volatile(document)
                  for document in (baseline, candidate))
    ran = base.get("experiments", {}), cand.get("experiments", {})
    found = [Difference(key, *("present" if side.pop(key, None)
                               else None for side in ran))
             for key in set(ran[0]) ^ set(ran[1])]
    base, cand = dict(_iter_metrics(base)), dict(_iter_metrics(cand))
    for path in set(base) | set(cand):
        old, new = base.get(path), cand.get(path)
        if old != new and not (old != old and new != new):
            found.append(Difference(path, old, new))
    return sorted(found, key=lambda difference: difference.path)


# -- attribution --------------------------------------------------------------


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


def _breakdown(artifact: Dict[str, Any]) -> Optional[Dict[str, Dict]]:
    part = artifact.get("experiments", {}).get("attr", {}) \
        .get("parts", {}).get("breakdown", {})
    return part["rows"] if part.get("type") == "nested" else None


def attribution_shifts(baseline: Dict[str, Any],
                       candidate: Dict[str, Any],
                       ) -> List[AttributionShift]:
    """Per-(node, category) attribution share movement.

    Reads the ``attr`` experiment's per-node resource breakdown from
    both artifacts, normalizes each side to *shares* of its own total
    attributed time (so a uniformly slower run shows no shift), and
    returns every segment, biggest mover first.  Empty when either
    artifact lacks the breakdown.
    """
    base, cand = _breakdown(baseline), _breakdown(candidate)
    if base is None or cand is None:
        return []
    base_total = fold_sum(v for row in base.values() for v in row.values())
    cand_total = fold_sum(v for row in cand.values() for v in row.values())
    if base_total <= 0 or cand_total <= 0:
        return []
    shifts = []
    for node in sorted(set(base) | set(cand)):
        base_row, cand_row = base.get(node, {}), cand.get(node, {})
        for category in sorted(set(base_row) | set(cand_row)):
            base_s = base_row.get(category, 0.0)
            cand_s = cand_row.get(category, 0.0)
            shifts.append(AttributionShift(
                node, category,
                base_s / base_total, cand_s / cand_total,
                base_s, cand_s))
    shifts.sort(key=lambda s: (-abs(s.share_delta), s.node,
                               s.category))
    return shifts


def render_differences(found: List[Difference],
                       baseline: Dict[str, Any],
                       candidate: Dict[str, Any]) -> str:
    """What ``--identity`` prints on a mismatch: the first 20 paths
    and a count, then — when both artifacts carry the ``attr``
    breakdown — the three segments whose share of attributed time
    moved by a percent or more.  Empty when nothing differs."""
    if not found:
        return ""
    lines = [f"  {difference.describe()}" for difference in found[:20]]
    if len(found) > 20:
        lines.append(f"  ... and {len(found) - 20} more")
    lines.append(f"{len(found)} differences")
    movers = [shift for shift in attribution_shifts(baseline, candidate)
              if abs(shift.share_delta) >= 0.01][:3]
    if movers:
        lines.append("attributed time moved:")
        lines += [f"  {shift.describe()}" for shift in movers]
    return "\n".join(lines)
