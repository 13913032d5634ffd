"""``python -m hostbench compare A.json B.json``: base vs new.

Per workload and end-to-end metric: base, new, ratio (new / base) and
the bound, with a verdict:

* ``ok`` / ``improved`` — within the bound / better by more than it;
* ``REGRESSION`` — worse than the base by more than the bound, or, for
  an exact metric (``sim_*``, the digest, ``check_fail_ratio``), any
  change for the worse (any change at all for ``sim_*`` and digests);
* ``unresolved`` — a host-time metric inside its bound while either
  side's ``harness.repeat_spread`` exceeds that bound: the runs are
  too noisy to call it unchanged.

``setup_s`` and ``wall_s`` are compared at reference speed (raw
seconds x the machine speed measured beside them).  Their rows also
show ``raw``, the ratio of the raw ``perf_counter`` seconds, and
``speed``, new machine speed / base machine speed; a row is marked
``speed differs`` when the two sides ran at speeds further apart than
the bound, because its verdict then rests on the normalisation: rerun
both sides closer together before claiming anything from it.

Deterministic work counts that differ are listed for information (a
kernel optimisation is expected to lower ``sim.core.entries``).  Exits
non-zero on any regression or any rise in ``check_fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
from typing import List

from .spec import CHECK_METRIC, END_TO_END, HOST_PER_LAYER, PER_LAYER

__all__ = ["compare", "main"]

#: host metrics measured in time, which a noisy repeat spread blurs
_TIMED = ("setup_s", "wall_s")


def _verdict(name: str, better: str, bound: float, base: float,
             new: float, spread: float) -> str:
    if name.startswith("sim_"):
        return "ok" if new == base else "REGRESSION"
    worse = (new - base) if better == "lower" else (base - new)
    share = worse / abs(base) if base else (1.0 if worse > 0 else 0.0)
    if share > bound:
        return "REGRESSION"
    if name in _TIMED and spread > bound:
        return "unresolved"
    return "improved" if share < -bound else "ok"


def _row(workload: str, metric: str, base, new, bound: float,
         verdict: str, raw_ratio=None, speed_ratio=None) -> dict:
    numeric = isinstance(base, (int, float))
    return {"workload": workload, "metric": metric, "base": base,
            "new": new, "bound": bound, "verdict": verdict,
            "ratio": (new / base if numeric and base
                      else 1.0 if base == new else float("nan")),
            "raw_ratio": raw_ratio, "speed_ratio": speed_ratio,
            "speed_differs": (speed_ratio is not None
                              and abs(speed_ratio - 1.0) > bound)}


def compare(base: dict, new: dict) -> List[dict]:
    """One row per workload x end-to-end metric (plus digest, checks)."""
    rows = []
    for workload, base_rec in base["workloads"].items():
        new_rec = new["workloads"].get(workload)
        if new_rec is None:
            rows.append(_row(workload, "(workload)", "present", "missing",
                             0.0, "REGRESSION"))
            continue
        spread = max(
            base_rec["per_layer"]["harness.repeat_spread"],
            new_rec["per_layer"]["harness.repeat_spread"])
        for name, _unit, better, bound in END_TO_END:
            b = base_rec["end_to_end"][name]
            n = new_rec["end_to_end"][name]
            timed = name in _TIMED
            rows.append(_row(
                workload, name, b, n,
                0.0 if name.startswith("sim_") else bound,
                _verdict(name, better, bound, b, n, spread),
                new_rec["raw"][name] / base_rec["raw"][name]
                if timed else None,
                new_rec["raw"]["speed"] / base_rec["raw"]["speed"]
                if timed else None))
        b = base_rec["end_to_end"][CHECK_METRIC[0]]
        n = new_rec["end_to_end"][CHECK_METRIC[0]]
        rows.append(_row(workload, CHECK_METRIC[0], b, n, 0.0,
                         "REGRESSION" if n > b else "ok"))
        b, n = base_rec["digest"][:12], new_rec["digest"][:12]
        rows.append(_row(workload, "digest", b, n, 0.0,
                         "ok" if b == n else "REGRESSION"))
    return rows


def changed_counts(base: dict, new: dict) -> List[tuple]:
    """(workload, metric, base, new) for each work count that moved."""
    moved = []
    for workload, base_rec in base["workloads"].items():
        new_rec = new["workloads"].get(workload)
        if new_rec is None:
            continue
        for name, *_ in PER_LAYER:
            if name in HOST_PER_LAYER:
                continue
            b = base_rec["per_layer"].get(name)
            n = new_rec["per_layer"].get(name)
            if b != n:
                moved.append((workload, name, b, n))
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m hostbench compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    for key in ("schema", "seed", "reduced"):
        if base.get(key) != new.get(key):
            print(f"cannot compare: {key} differs "
                  f"({base.get(key)!r} vs {new.get(key)!r})")
            return 2
    rows = compare(base, new)
    print(f"{'workload':20s} {'metric':20s} {'base':>14s} {'new':>14s} "
          f"{'ratio':>8s} {'bound':>6s} {'raw':>8s} {'speed':>8s}  "
          f"verdict")
    for row in rows:
        def shown(value):
            return (f"{value:14.6g}" if isinstance(value, (int, float))
                    else f"{value:>14s}")

        def ratio(value):
            return f"{'':8s}" if value is None else f"{value:8.4f}"
        print(f"{row['workload']:20s} {row['metric']:20s} "
              f"{shown(row['base'])} {shown(row['new'])} "
              f"{row['ratio']:8.4f} {row['bound']:6.2f} "
              f"{ratio(row['raw_ratio'])} {ratio(row['speed_ratio'])}  "
              f"{row['verdict']}"
              + ("  (speed differs)" if row["speed_differs"] else ""))
    moved = changed_counts(base, new)
    if moved:
        print("work counts that changed (informational):")
        for workload, name, b, n in moved:
            print(f"  {workload:20s} {name:34s} {b} -> {n}")
    regressions = [row for row in rows if row["verdict"] == "REGRESSION"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    shifted = [row for row in rows if row["speed_differs"]]
    print(f"{len(regressions)} regression(s), {len(unresolved)} "
          f"unresolved, {len(shifted)} row(s) across a speed "
          f"difference, {len(moved)} work count(s) changed")
    return 1 if regressions else 0
