"""OB: the observability plane observed — tracing, telemetry, SLOs.

The experiment the cluster-wide observability layer exists for.  One
3-node cluster serves sharded reads/writes from stale-routed clients
while ``node1``'s DPU Arm cluster is crashed mid-run; a
:class:`~repro.cluster.Rebalancer` migrates its shards away.  A
:class:`~repro.obs.plane.ClusterTelemetry` plane scrapes every node,
an :class:`~repro.obs.plane.SloMonitor` watches a goodput floor and a
p99 ceiling, and a :class:`~repro.obs.plane.FlightRecorder` dumps
incident bundles on the fault and the breach.

Parts:

* ``trace`` — distributed-trace completeness over the merged
  cluster trace: forwarded (DPU-to-DPU) and failed-over (DPU→host)
  requests each yield a single connected node-tagged tree, migration
  pulls carry context, and no merged span dangles;
* ``plane`` — scrape/derived-series health: snapshot counts, shard
  heat, the node1 goodput collapse as the plane saw it, the breaker
  opening in the ``breaker_state`` series;
* ``slo`` — detection: violations fired, detection latency from
  fault onset to the first fired violation, incident bundles and
  their contents;
* ``run`` — the observed run's client outcomes and its span volume
  per request.

The scenario is the row ``ROWS["obs"]["incident"]``
(:mod:`repro.bench.harness`), the ``scale`` experiment's rebalancing
run on three nodes; ``attr`` runs the same row.  Everything reported
is simulated (sim-time or event counts), so the ``--jobs N``
byte-identity gate covers this experiment too.  That the plane
perturbs nothing — the row run with no plane, a metrics-only plane or
the full traced one gives byte-identical outcomes and counters — is a
tier-1 test (``tests/obs/test_zero_perturbation.py``), not a part of
this experiment.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs import (ClusterTelemetry, FlightRecorder, SloMonitor,
                   SloSpec, merge_chrome_events)
from .harness import Row, run_cluster, tally
from ..sim.stats import fold_sum

__all__ = ["obs_unit", "default_slos", "incident_plane"]

SCRAPE_INTERVAL_S = 5e-4
RETAIN_S = 2e-3

#: the objectives the monitor watches during the run
GOODPUT_FLOOR_OPS = 20_000.0
P99_CEILING_S = 2.0e-3


def default_slos() -> Tuple[SloSpec, ...]:
    """The experiment's SLO set (module-level so tests can reuse it)."""
    return (
        SloSpec("goodput_floor", metric="goodput_ops_per_s",
                bound=GOODPUT_FLOOR_OPS, kind="min", node="node1",
                min_windows=2),
        SloSpec("p99_ceiling", metric="p99_latency_s",
                bound=P99_CEILING_S, kind="max", min_windows=2),
    )


def incident_plane(telemetry: Optional[ClusterTelemetry],
                   name: str) -> ClusterTelemetry:
    """The traced plane an ``obs``/``attr`` run observes itself with:
    ``telemetry`` (from ``--trace-out``) or an identical private one,
    watched by the SLO monitor and the flight recorder."""
    plane = (telemetry if telemetry is not None
             else ClusterTelemetry(tracing=True, name=name))
    plane.monitor = SloMonitor(default_slos())
    plane.recorder = FlightRecorder(retain_s=RETAIN_S)
    return plane


def _span_census(plane: ClusterTelemetry) -> Dict[str, float]:
    """Count the trace shapes the claims talk about, per span name."""
    total = open_spans = 0
    by_name: Dict[str, int] = {}
    adopted = adopted_with_id = 0
    for _name, tracer in plane.tracers():
        for span in tracer.all_spans():
            total += 1
            if span.end_s is None:
                open_spans += 1
            by_name[span.name] = by_name.get(span.name, 0) + 1
            if "remote_parent" in span.attrs:
                adopted += 1
                if isinstance(span.attrs.get("trace_id"), str):
                    adopted_with_id += 1
    return {
        "total": total,
        "open": open_spans,
        "by_name": by_name,
        "adopted": adopted,
        "adopted_with_id": adopted_with_id,
    }


def _merged_connectivity(plane: ClusterTelemetry) -> Dict[str, float]:
    """Parent-link integrity of the merged multi-node Chrome trace."""
    events = merge_chrome_events(plane.tracers())
    spans = [event for event in events if event.get("ph") == "X"]
    known = {event["args"]["span_id"] for event in spans}
    dangling = linked = adopted_linked = adopted_total = 0
    for event in spans:
        args = event["args"]
        parent = args.get("parent_id")
        if parent is not None:
            linked += 1
            if parent not in known:
                dangling += 1
        if "remote_parent" in args:
            adopted_total += 1
            if parent is not None and parent in known:
                adopted_linked += 1
    return {
        "events": float(len(events)),
        "spans": float(len(spans)),
        "linked": float(linked),
        "dangling": float(dangling),
        "adopted": float(adopted_total),
        "adopted_linked": float(adopted_linked),
    }


def obs_unit(_name: str, row: Row, telemetry: Optional[ClusterTelemetry]
             ) -> Dict[str, object]:
    """OB: the observability experiment's one row, the incident, and
    every part it reports.

    The experiment always observes itself (:func:`incident_plane`),
    and every reported value is simulated either way.
    """
    plane = incident_plane(telemetry, "obs")
    observed = tally(run_cluster(row, plane).clients)
    fault_start_s = row.crash[1]

    census = _span_census(plane)
    merged = _merged_connectivity(plane)
    by_name = census["by_name"]
    forwarded = by_name.get("cluster.route", 0)
    failovers = by_name.get("cluster.shard_host", 0)
    migrations = (by_name.get("mig.export", 0)
                  + by_name.get("rebalance.pull", 0))
    trace = {
        "spans_total": float(census["total"]),
        "spans_open": float(census["open"]),
        "forwarded_hops": float(forwarded),
        "failover_spans": float(failovers),
        "migration_spans": float(migrations),
        "adopted_requests": float(census["adopted"]),
        "adopted_with_trace_id": float(census["adopted_with_id"]),
        "merged_events": merged["events"],
        "merged_spans": merged["spans"],
        "dangling_parents": merged["dangling"],
        "adopted_connected_fraction": (
            merged["adopted_linked"] / merged["adopted"]
            if merged["adopted"] else 0.0),
    }

    # -- the plane's own view of the incident --------------------------------
    fault_scrapes = [snap for snap in plane.snapshots
                     if snap.t_s > fault_start_s]
    pre = [snap.derived["goodput_ops_per_s"].get("node1", 0.0)
           for snap in plane.snapshots
           if snap.t_s <= fault_start_s and snap.version > 1]
    post = [snap.derived["goodput_ops_per_s"].get("node1", 0.0)
            for snap in fault_scrapes
            if snap.t_s <= fault_start_s + 4 * SCRAPE_INTERVAL_S]
    breaker_series = [
        snap.derived["breaker_state"].get("node1", 0.0)
        for snap in plane.snapshots
    ]
    # hot_shards() reads the latest (drain) window, which is idle by
    # then — the part reports the peak per-window top-shard heat.
    peak_heat = max(
        (max(snap.derived["shard_heat"].values(), default=0.0)
         for snap in plane.snapshots), default=0.0)
    plane_part = {
        "snapshots": float(len(plane.snapshots)),
        "scrape_interval_s": SCRAPE_INTERVAL_S,
        "nodes": float(len(plane.nodes)),
        "derived_series": float(len(plane.latest().derived)
                                if plane.latest() else 0),
        "node1_goodput_pre_fault": (fold_sum(pre) / len(pre)
                                    if pre else 0.0),
        "node1_goodput_post_fault": (fold_sum(post) / len(post)
                                     if post else 0.0),
        "breaker_opened": float(max(breaker_series, default=0.0)
                                >= 1.0),
        "hot_shard_heat": peak_heat,
    }

    monitor, recorder = plane.monitor, plane.recorder
    first = monitor.first_violation()
    incident = recorder.incidents[0] if recorder.incidents else None
    slo_part = {
        "violations": float(len(monitor.violations)),
        "first_violation_t_s": first.t_s if first else 0.0,
        "detection_latency_s": ((first.t_s - fault_start_s)
                                if first else -1.0),
        "incidents": float(len(recorder.incidents)),
        "incident_snapshots": (float(len(incident["snapshots"]))
                               if incident else 0.0),
        "incident_span_nodes": (
            float(fold_sum(1 for entry in incident["nodes"].values()
                           if entry["spans"]))
            if incident else 0.0),
        "slo_breach_recorded": float(any(
            bundle["reason"] == "slo_violation"
            for bundle in recorder.incidents)),
    }

    requests = max(observed["ok"] + observed["errors"], 1)
    run_part = {
        "ok": float(observed["ok"]),
        "errors": float(observed["errors"]),
        "pending": float(observed["pending"]),
        "spans_per_request": census["total"] / requests,
    }

    return {
        "trace": trace,
        "plane": plane_part,
        "slo": slo_part,
        "run": run_part,
    }
