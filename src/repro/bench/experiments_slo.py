"""SL: the overload-safe cluster under a chaos scenario matrix.

The robustness experiment the admission/backpressure/autoscale stack
exists for.  Four chaos scenarios — a flash crowd, a regional (DPU)
failover, a noisy neighbor, and a rolling upgrade — each run two
ways over identical seeded arrivals:

* **protected** — per-node :class:`~repro.core.AdmissionController`
  at the DDS ingress (token buckets from tenant budgets, bounded
  queue, deadline-aware early rejection) plus, where the
  scenario calls for it, the telemetry-driven
  :class:`~repro.cluster.Autoscaler`;
* **unprotected** — the same simulation with the door wide open (a
  telemetry plane still watches, because measuring is not
  protecting).

Every simulation is a row of ``ROWS["slo"]``
(:mod:`repro.bench.harness`): one per scenario and arm, the steady
flash baseline and the hot-shard split, each under its own private
plane.  That the watching plane perturbs nothing — the unprotected
arm run with no plane at all is byte-identical — is a tier-1 test
over :data:`SCENARIOS` (``tests/obs/test_zero_perturbation.py``), not
a part of this experiment.

Goodput is *on-time* goodput — an ok response later than
``DEADLINE_S`` counts as late, because an open-loop overload answers
everything eventually and lateness is how collapse shows.
SLO-violation-seconds are the p99-ceiling breach windows the
:class:`~repro.obs.plane.SloMonitor` fired, times the scrape
interval.

Parts:

* ``matrix`` (nested, one row per scenario) — protected vs
  unprotected on-time goodput, their ratio, and violation-seconds
  both ways;
* ``flash`` — surge-window goodput rates against a no-surge
  steady-state baseline: admission plus reject-driven autoscaling
  keeps ≥ 90 % of steady goodput through a 2x offered surge while
  the unprotected run collapses;
* ``autoscale`` — the protected flash run's node-count record:
  scale-up happened, and the count converged within the window;
* ``hotshard`` — a skewed stream drives one shard hot; the
  autoscaler split halves the hot shard's p99 under live traffic;
* ``summary`` — the matrix-wide violation-seconds ratio.

Everything is a pure function of the seeds and sim time — arrivals,
admission verdicts, autoscale decisions and splits all replay
byte-identically, so the ``--jobs N`` identity gate covers SL too.
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster import ClusterClient, response_ok
from ..obs import ClusterTelemetry, SloMonitor, SloSpec
from .harness import (DEADLINE_S, FLASH_SURGE_S, FLASH_SURGE_START_S,
                      HOT_SHARD, ONTIME_FLOOR, SCRAPE_INTERVAL_S, Row,
                      run_cluster, tally)
from ..sim.stats import fold_sum

__all__ = ["slo_unit", "slo_parts", "SCENARIOS"]

#: the chaos matrix, in part order: each runs as a protected
#: (``{key}-p``) and an unprotected (``{key}-u``) row
SCENARIOS = ("flash_crowd", "regional_failover", "noisy_neighbor",
             "rolling_upgrade")

#: surge goodput is measured over the back half of the surge: by
#: then the protected cluster has rejected, scaled, migrated and been
#: re-dialed by clients, while the unprotected one is deep in
#: queueing collapse
SURGE_WINDOW = (FLASH_SURGE_START_S + 3.0e-3,
                FLASH_SURGE_START_S + FLASH_SURGE_S)
#: the post-cutover drain transient excluded from the after-split p99
HOT_SETTLE_S = 1.0e-3


def _plane(name: str) -> ClusterTelemetry:
    """A metrics plane watching the matrix's SLO, a per-window on-time
    answer floor."""
    plane = ClusterTelemetry(tracing=False, name=name,
                             scrape_interval_s=SCRAPE_INTERVAL_S)
    plane.monitor = SloMonitor((
        SloSpec("ontime_floor", metric="ontime_fraction",
                bound=ONTIME_FLOOR, kind="min", min_windows=2),
    ))
    return plane


def _ontime_in_window(client: ClusterClient, lo_s: float,
                      hi_s: float) -> int:
    """On-time ok responses submitted inside ``[lo_s, hi_s)``."""
    count = 0
    for request, (_shard, submitted) in zip(client.requests,
                                            client.request_meta):
        if not (lo_s <= submitted < hi_s):
            continue
        if (request.completed and not request.failed
                and request.latency <= DEADLINE_S
                and response_ok(request.data)):
            count += 1
    return count


def _p99(samples: List[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[int(0.99 * (len(ordered) - 1))]


def _hotshard(run) -> Dict[str, float]:
    """The hot shard's on-time p99 before and after the split cutover,
    measured from the clients' own request records."""
    autoscaler = run.armed
    split_t = (autoscaler.split_history[0][0]
               if autoscaler.split_history else float("inf"))
    before: List[float] = []
    after: List[float] = []
    for client in run.clients:
        for request, (shard, submitted) in zip(client.requests,
                                               client.request_meta):
            if shard != HOT_SHARD or not request.completed \
                    or request.failed:
                continue
            if submitted < split_t:
                before.append(request.latency)
            elif submitted >= split_t + HOT_SETTLE_S:
                # The settle gap drains the pre-split backlog; its
                # requests belong to neither regime.
                after.append(request.latency)
    return {
        "split_happened": float(bool(autoscaler.split_history)),
        "split_t_s": (split_t if autoscaler.split_history else -1.0),
        "splits": float(autoscaler.splits.value),
        "p99_before_s": _p99(before),
        "p99_after_s": _p99(after),
        "hot_requests_before": float(len(before)),
        "hot_requests_after": float(len(after)),
    }


def slo_unit(name: str, row: Row, _telemetry) -> Dict[str, object]:
    """Run one ``slo`` row under its private plane; the numbers its
    part reads.

    Violation seconds count unique scrape windows with a breach, not
    raw violation entries: eight clients breaching the same window is
    one window of unavailability, and counting entries would reward
    runs that simply watch fewer clients.
    """
    plane = _plane(f"slo-{name}")
    run = run_cluster(row, plane)
    if name == "hotshard":
        return _hotshard(run)
    totals = tally(run.clients, deadline_s=DEADLINE_S)
    windows = {violation.version
               for violation in plane.monitor.violations}
    result: Dict[str, object] = {
        "ok": totals["ok"], "late": totals["late"],
        "errors": totals["errors"],
        "violation_s": len(windows) * SCRAPE_INTERVAL_S,
    }
    if name.startswith("noisy_neighbor"):
        result["pro"] = run.clients[0].outcomes(deadline_s=DEADLINE_S)
    if name.startswith("flash_crowd") or name == "steady":
        result["surge_ontime"] = fold_sum(
            _ontime_in_window(client, *SURGE_WINDOW)
            for client in run.clients)
    if name == "flash_crowd-p":
        autoscaler = run.armed
        result["node_counts"] = [n for (_t, n) in autoscaler.node_counts]
        result["scale_ups"] = autoscaler.scale_ups.value
        result["scale_downs"] = autoscaler.scale_downs.value
    return result


# -- the artifact ------------------------------------------------------------------


def slo_parts(results: Dict[str, Dict]) -> Dict[str, object]:
    """SL: the chaos matrix, the flash baseline, and the hot split,
    from :func:`slo_unit`'s results keyed by row."""
    matrix: Dict[str, Dict[str, float]] = {}
    protected_violation_s = unprotected_violation_s = 0.0
    for key in SCENARIOS:
        protected = results[f"{key}-p"]
        unprotected = results[f"{key}-u"]
        protected_violation_s += protected["violation_s"]
        unprotected_violation_s += unprotected["violation_s"]
        matrix[key] = {
            "protected_ontime_ok": float(protected["ok"]),
            "unprotected_ontime_ok": float(unprotected["ok"]),
            "goodput_ratio": (protected["ok"]
                              / max(unprotected["ok"], 1)),
            "protected_violation_s": protected["violation_s"],
            "unprotected_violation_s": unprotected["violation_s"],
            "protected_late": float(protected["late"]),
            "unprotected_late": float(unprotected["late"]),
            # Errors in a protected run are overwhelmingly typed
            # admission rejections (retry-after contract); an
            # unprotected run has none to give.
            "protected_errors": float(protected["errors"]),
            "unprotected_errors": float(unprotected["errors"]),
        }
        if "pro" in protected:
            pro_p = protected["pro"]["ok"]
            pro_u = unprotected["pro"]["ok"]
            matrix[key]["protected_pro_ontime"] = float(pro_p)
            matrix[key]["unprotected_pro_ontime"] = float(pro_u)
            matrix[key]["pro_goodput_ratio"] = pro_p / max(pro_u, 1)
            matrix[key]["protected_pro_late"] = float(
                protected["pro"]["late"])
            matrix[key]["unprotected_pro_late"] = float(
                unprotected["pro"]["late"])

    # -- flash crowd vs its steady-state baseline ----------------------------
    window = SURGE_WINDOW[1] - SURGE_WINDOW[0]

    def surge_rate(name: str) -> float:
        return results[name]["surge_ontime"] / window

    steady_rate = surge_rate("steady")
    flash = {
        "steady_goodput_ops": steady_rate,
        "protected_surge_goodput_ops": surge_rate("flash_crowd-p"),
        "unprotected_surge_goodput_ops": surge_rate("flash_crowd-u"),
        "protected_surge_ratio": (surge_rate("flash_crowd-p")
                                  / max(steady_rate, 1.0)),
        "unprotected_surge_ratio": (surge_rate("flash_crowd-u")
                                    / max(steady_rate, 1.0)),
    }

    # -- autoscale convergence (the protected flash run's record) ------------
    scaled = results["flash_crowd-p"]
    counts = scaled["node_counts"]
    tail = counts[-max(len(counts) // 4, 1):]
    autoscale = {
        "initial_nodes": float(counts[0]) if counts else 0.0,
        "peak_nodes": float(max(counts, default=0)),
        "final_nodes": float(counts[-1]) if counts else 0.0,
        "scale_ups": float(scaled["scale_ups"]),
        "scale_downs": float(scaled["scale_downs"]),
        "scaled_up": float(bool(counts)
                           and max(counts) > counts[0]),
        "converged": float(bool(tail)
                           and all(n == tail[-1] for n in tail)),
    }

    hotshard = dict(results["hotshard"])
    hotshard["p99_split_ratio"] = (
        hotshard["p99_before_s"] / hotshard["p99_after_s"]
        if hotshard["p99_after_s"] > 0 else 0.0)

    summary = {
        "scenarios": float(len(SCENARIOS)),
        "protected_violation_s": protected_violation_s,
        "unprotected_violation_s": unprotected_violation_s,
        # floor the denominator at one scrape window so a perfectly
        # clean protected matrix still yields a finite ratio
        "violation_seconds_ratio": (
            unprotected_violation_s
            / max(protected_violation_s, SCRAPE_INTERVAL_S)),
    }
    return {
        "matrix": matrix,
        "flash": flash,
        "autoscale": autoscale,
        "hotshard": hotshard,
        "summary": summary,
    }
