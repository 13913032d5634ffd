"""A plane perturbs nothing: watching a scenario leaves it byte-identical.

The one home of the property.  Every chaos scenario of the ``slo``
experiment (:data:`~repro.bench.experiments_slo.SCENARIOS`, so a new
one is covered without editing this file) runs its unprotected row
under the scrape-and-SLO plane the experiment builds and with no plane
at all; the ``obs``/``attr`` incident row runs with no plane, a
metrics-only plane, and the traced plane carrying a monitor, a flight
recorder and an attribution collector, built as ``attr`` builds it.
Client outcomes, cluster counters and every request's latency must
agree exactly.  Outcome counts alone would miss a plane that delays
requests without pushing one past a deadline or the run's end.

Each row runs shrunk (:func:`_shrink`, :data:`SHRINK`).  Each chaos
case also checks that its chaos event — the crash, the surge, the
noisy batch, the upgrade's pull — still happens inside the shrunk
window, so the property is held where it matters.
"""

from dataclasses import replace

import pytest

from repro.bench.experiments_obs import RETAIN_S, default_slos
from repro.bench.experiments_scale import scale_unit
from repro.bench.experiments_slo import SCENARIOS, _plane
from repro.bench.harness import FLASH_SURGE_START_S, ROWS, run_cluster
from repro.obs import (AttributionCollector, ClusterTelemetry,
                       FlightRecorder, SloMonitor)

#: per chaos scenario, the share of its load window and drain, and of
#: its rate, its shrunk row keeps.  The surge and the crash start at
#: 2 ms, the upgrade at 1.5 ms; break-before-make drains node2 before
#: the replacement pulls, which lands inside the window only under a
#: lighter load.
SHRINK = {"flash_crowd": (0.3, 1.0), "regional_failover": (0.35, 0.5),
          "noisy_neighbor": (0.3, 1.0), "rolling_upgrade": (0.5, 0.35)}


def _shrink(row, window, rate):
    """``row`` with its load window and drain at ``window`` of theirs
    and its rate at ``rate`` of it."""
    return replace(row, rate=row.rate * rate,
                   duration_s=row.duration_s * window,
                   drain_s=row.drain_s * window)


def _observe(row, plane):
    """(the run, its outcomes and counters, per-request timings)."""
    run = run_cluster(row, plane)
    outcomes = {"per_client": [client.outcomes()
                               for client in run.clients],
                "counters": run.cluster.metrics_snapshot()}
    timings = [[(request.completed, request.failed,
                 request.latency if request.completed else None)
                for request in client.requests]
               for client in run.clients]
    return run, outcomes, timings


# -- the chaos matrix -----------------------------------------------------


def _arrival_rate(clients, lo_s, hi_s):
    """Requests submitted per second inside ``[lo_s, hi_s)``."""
    return len([submitted for client in clients
                for _shard, submitted in client.request_meta
                if lo_s <= submitted < hi_s]) / (hi_s - lo_s)


def _surged(run):
    """The offered rate inside the surge is near its 2x peak."""
    base = _arrival_rate(run.clients, 0.0, FLASH_SURGE_START_S - 5e-4)
    return _arrival_rate(run.clients, FLASH_SURGE_START_S + 1e-4,
                         run.row.duration_s) > 1.5 * base


def _crashed(run):
    """node1's DPU died: its breaker tripped."""
    return run.cluster.metrics_snapshot()["node1"]["breaker_trips"] > 0


def _flooded(run):
    """The batch clients offered far more than the pro tenant."""
    pro, *batch = run.clients
    return len([request for client in batch
                for request in client.requests]) > 4 * len(pro.requests)


def _pulled(run):
    """The replacement node joined and pulled its shards live."""
    return (run.rebalancer.migrated_shards.value > 0
            and run.cluster.shardmap.assignment().get("node3"))


CHAOS = {"flash_crowd": _surged, "regional_failover": _crashed,
         "noisy_neighbor": _flooded, "rolling_upgrade": _pulled}


@pytest.mark.parametrize("key", SCENARIOS)
def test_chaos_scenario_is_unmoved_by_its_plane(key):
    row = _shrink(ROWS["slo"][f"{key}-u"], *SHRINK[key])
    plane = _plane(f"slo-{key}-u")
    run, observed, timings = _observe(row, plane)
    _, unobserved, unobserved_timings = _observe(row, None)
    assert plane.snapshots, "the plane never scraped"
    assert CHAOS[key](run), f"{key}: no chaos inside the shrunk window"
    assert observed == unobserved
    assert timings == unobserved_timings


# -- the incident scenario of obs and attr --------------------------------


INCIDENT = _shrink(ROWS["obs"]["incident"], 0.35, 1.0)


@pytest.fixture(scope="module")
def unobserved():
    """The incident row with no plane."""
    return _observe(INCIDENT, None)[1:]


def test_incident_scenario_is_unmoved_by_a_metrics_plane(unobserved):
    plane = ClusterTelemetry(tracing=False, name="obs")
    observed = _observe(INCIDENT, plane)[1:]
    assert plane.snapshots, "the plane never scraped"
    assert observed == unobserved


def test_incident_scenario_is_unmoved_by_the_traced_plane(unobserved):
    plane = ClusterTelemetry(tracing=True, name="attr")
    plane.monitor = SloMonitor(default_slos())
    plane.recorder = FlightRecorder(retain_s=RETAIN_S)
    plane.attribution = AttributionCollector()
    _, outcomes, timings = _observe(INCIDENT, plane)
    assert plane.snapshots, "the plane never scraped"
    assert outcomes == unobserved[0]
    # A tracer moves request timings by itself (Finding 1, below), so
    # the scrape, monitor, recorder and collector are held to the same
    # tracing plane that never scrapes inside the run.
    quiet = ClusterTelemetry(tracing=True, name="attr",
                             scrape_interval_s=1.0)
    assert timings == _observe(INCIDENT, quiet)[2]


# -- Finding 1 ------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="Finding 1: with a real tracer a connection sends through "
           "TcpConnection._send_message_traced, the unbatched sender, "
           "and the rebalance scenario's recovery_s moves (1 ULP at "
           "full size, 0.3 us here; a metrics-only plane does not "
           "move it); at full size it is the one difference CI's "
           "perf-gate step 'Export traced experiments with attribution "
           "report (identical to the plain run)' reports. The change "
           "that removes the fork makes this pass and has to delete "
           "this marker")
def test_traced_rebalance_is_unmoved():
    # 40 000 ops/s per node reproduces a difference (0.003126579858843355
    # traced against 0.0031262687988433523); 20 000 does not
    row = replace(ROWS["scale"]["rebalance"], rate=40_000.0)
    traced = scale_unit("rebalance", row,
                        ClusterTelemetry(tracing=True, name="scale"))
    assert traced == scale_unit("rebalance", row, None)
