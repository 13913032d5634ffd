"""A plane perturbs nothing: watching a scenario leaves it byte-identical.

The one home of the property.  Every chaos scenario of the ``slo``
experiment (:data:`~repro.bench.experiments_slo.SCENARIOS`, so a new
one is covered without editing this file) runs its unprotected arm
under the scrape-and-SLO plane the experiment builds and with no plane
at all; the ``obs``/``attr`` incident scenario runs with no plane, a
metrics-only plane, and the traced plane carrying a monitor, a flight
recorder and an attribution collector, built as ``attr`` builds it.
Client outcomes, cluster counters and every request's latency must
agree exactly.  Outcome counts alone would miss a plane that delays
requests without pushing one past a deadline or the run's end.

Each scenario runs at ``SCALE`` of its duration; the fault, surge and
upgrade triggers still fall inside the shortened windows.
"""

import pytest

from repro.bench import experiments_obs, experiments_scale, experiments_slo
from repro.bench.experiments_obs import RETAIN_S, default_slos, obs_scenario
from repro.obs import (AttributionCollector, ClusterTelemetry,
                       FlightRecorder, SloMonitor)

SCALE = 0.35


def _shrink(patch, module):
    """Scale every duration constant of ``module`` by ``SCALE``, and
    have its ``tally`` hand back the clients it counted."""
    for name in dir(module):
        if name == "DURATION_S" or name.endswith("_DURATION_S"):
            patch.setattr(module, name, getattr(module, name) * SCALE)
    tally = module.tally
    patch.setattr(module, "tally", lambda clients, **kwargs: dict(
        tally(clients, **kwargs), clients=clients))


def _timings(run):
    """Each client's requests as (completed, failed, latency)."""
    return [[(request.completed, request.failed,
              request.latency if request.completed else None)
             for request in client.requests]
            for client in run["clients"]]


# -- the chaos matrix -----------------------------------------------------


@pytest.mark.parametrize("key, runner", experiments_slo.SCENARIOS,
                         ids=[key for key, _ in experiments_slo.SCENARIOS])
def test_chaos_scenario_is_unmoved_by_its_plane(key, runner, monkeypatch):
    _shrink(monkeypatch, experiments_slo)
    plane = experiments_slo._plane(f"slo-{key}-u")
    observed = runner(False, plane)
    unobserved = runner(False, None)
    assert plane.snapshots, "the plane never scraped"
    assert observed["per_client"] == unobserved["per_client"]
    assert observed["counters"] == unobserved["counters"]
    assert _timings(observed) == _timings(unobserved)


# -- the incident scenario of obs and attr --------------------------------


def _observe(plane):
    """(outcomes and counters, per-request timings) of one run."""
    run = obs_scenario(plane)
    outcomes = {key: run[key] for key in ("ok", "errors", "pending",
                                          "per_client", "counters")}
    return outcomes, _timings(run)


@pytest.fixture(scope="module")
def unobserved():
    """The incident scenario with no plane, shrunk like the cases."""
    with pytest.MonkeyPatch.context() as patch:
        _shrink(patch, experiments_obs)
        return _observe(None)


def test_incident_scenario_is_unmoved_by_a_metrics_plane(unobserved,
                                                          monkeypatch):
    _shrink(monkeypatch, experiments_obs)
    plane = ClusterTelemetry(tracing=False, name="obs")
    observed = _observe(plane)
    assert plane.snapshots, "the plane never scraped"
    assert observed == unobserved


def test_incident_scenario_is_unmoved_by_the_traced_plane(unobserved,
                                                          monkeypatch):
    _shrink(monkeypatch, experiments_obs)
    plane = ClusterTelemetry(tracing=True, name="attr")
    plane.monitor = SloMonitor(default_slos())
    plane.recorder = FlightRecorder(retain_s=RETAIN_S)
    plane.attribution = AttributionCollector()
    outcomes, timings = _observe(plane)
    assert plane.snapshots, "the plane never scraped"
    assert outcomes == unobserved[0]
    # A tracer moves request timings by itself (Finding 1, below), so
    # the scrape, monitor, recorder and collector are held to the same
    # tracing plane that never scrapes inside the run.
    quiet = ClusterTelemetry(tracing=True, name="attr",
                             scrape_interval_s=1.0)
    assert timings == _observe(quiet)[1]


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
def test_traced_rebalance_is_unmoved(monkeypatch):
    # 40 000 ops/s per node reproduces a difference (0.003126579858843355
    # traced against 0.0031262687988433523); 20 000 does not
    monkeypatch.setattr(experiments_scale, "REBALANCE_RATE_PER_NODE",
                        40_000.0)
    traced = experiments_scale._rebalance_scenario(
        "rebalance", ClusterTelemetry(tracing=True, name="scale"))
    assert traced == experiments_scale._rebalance_scenario("rebalance",
                                                           None)
