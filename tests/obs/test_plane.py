"""The telemetry plane: scraping, derived series, SLOs, recorder."""

import json

import pytest

from repro.obs import (
    ClusterTelemetry,
    FlightRecorder,
    SloMonitor,
    SloSpec,
    SloViolation,
)
from repro.obs.plane.collector import TelemetrySnapshot
from repro.sim import Environment
from repro.sim.stats import Tally


def _manual_plane(window: int = 3) -> ClusterTelemetry:
    """A plane with one hand-registered node, scraped by hand."""
    plane = ClusterTelemetry(env=Environment(), tracing=False,
                             window=window)
    metrics = plane.node("node0").metrics
    metrics.counter("dds.node0.shard_local")
    metrics.counter("dds.node0.shard_routed")
    metrics.counter("dds.node0.shard_errors")
    metrics.counter("dds.node0.shard3.ops")
    metrics.counter("dds.node0.shard7.ops")
    metrics.register("dds.node0.request_latency",
                     Tally("lat", max_samples=16))
    metrics.counter("host.cpu.cycles")
    plane._host_hz["node0"] = 1e9
    plane._prev_t = 0.0    # what start() records before scraping
    return plane


def _advance_and_scrape(plane, ops: int = 0, shard3: int = 0,
                        latency: float = 0.0, cycles: float = 0.0):
    """Bump instruments, advance sim time one interval, scrape."""
    metrics = plane.node("node0").metrics
    metrics.counter("dds.node0.shard_local").add(ops)
    metrics.counter("dds.node0.shard3.ops").add(shard3)
    if latency:
        metrics.get("dds.node0.request_latency").observe(latency)
    metrics.counter("host.cpu.cycles").add(cycles)
    env = plane._env
    env.run(until=env.now + plane.scrape_interval_s)
    return plane.scrape()


class TestClusterTelemetryBasics:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ClusterTelemetry(scrape_interval_s=0.0)
        with pytest.raises(ValueError):
            ClusterTelemetry(window=0)

    def test_node_bundles_are_cached_and_node_tagged(self):
        plane = ClusterTelemetry(tracing=True)
        bundle = plane.node("node0")
        assert plane.node("node0") is bundle
        assert bundle.tracer.node == "node0"
        assert plane.tracers() == [("node0", bundle.tracer)]

    def test_metrics_only_plane_lists_no_tracers(self):
        plane = ClusterTelemetry(tracing=False)
        plane.node("node0")
        assert plane.tracers() == []
        assert plane.to_chrome_events() == []
        assert "no spans" in plane.flame_summary()

    def test_one_plane_per_cluster(self):
        # attach() is exercised against a real Cluster in the
        # distributed-trace tests; here only the double-attach guard.
        plane = ClusterTelemetry(env=Environment())
        plane._cluster = object()
        with pytest.raises(ValueError):
            plane.attach(object())

    def test_start_needs_an_env(self):
        with pytest.raises(ValueError):
            ClusterTelemetry().start()


class TestScrape:
    def test_snapshots_are_versioned_and_timed(self):
        plane = _manual_plane()
        first = _advance_and_scrape(plane, ops=10)
        second = _advance_and_scrape(plane, ops=5)
        assert (first.version, second.version) == (1, 2)
        assert second.t_s == pytest.approx(2 * plane.scrape_interval_s)
        assert second.interval_s == pytest.approx(
            plane.scrape_interval_s)
        assert plane.latest() is second

    def test_deltas_are_per_window(self):
        plane = _manual_plane()
        _advance_and_scrape(plane, ops=10)
        snapshot = _advance_and_scrape(plane, ops=5)
        assert snapshot.per_node["node0"]["dds.node0.shard_local"] == 15
        assert snapshot.deltas["node0"]["dds.node0.shard_local"] == 5

    def test_goodput_latency_occupancy_derived(self):
        plane = _manual_plane()
        interval = plane.scrape_interval_s
        snapshot = _advance_and_scrape(plane, ops=10, latency=2e-4,
                                       cycles=1e5)
        derived = snapshot.derived
        assert derived["goodput_ops_per_s"]["node0"] \
            == pytest.approx(10 / interval)
        assert derived["p99_latency_s"]["node0"] \
            == pytest.approx(2e-4)
        # 1e5 cycles / 5e-4 s / 1e9 Hz = 0.2 cores
        assert derived["host_core_occupancy"]["node0"] \
            == pytest.approx(1e5 / interval / 1e9)

    def test_p999_reads_the_raw_reservoir(self):
        plane = _manual_plane()
        metrics = plane.node("node0").metrics
        for latency in (1e-4,) * 9 + (9e-4,):
            metrics.get("dds.node0.request_latency").observe(latency)
        snapshot = _advance_and_scrape(plane, ops=10)
        tally = metrics.get("dds.node0.request_latency")
        assert snapshot.derived["p999_latency_s"]["node0"] \
            == pytest.approx(tally.p999)
        # the tail percentile sits between p99 and the observed max
        assert tally.p99 <= tally.p999 <= 9e-4

    def test_goodput_per_host_core_with_milli_core_floor(self):
        plane = _manual_plane()
        interval = plane.scrape_interval_s
        snapshot = _advance_and_scrape(plane, ops=10, cycles=1e6)
        occupancy = 1e6 / interval / 1e9
        assert snapshot.derived["goodput_per_host_core"]["node0"] \
            == pytest.approx((10 / interval) / occupancy)
        # an idle host divides by the milli-core floor, not ~zero
        idle = _advance_and_scrape(plane, ops=5, cycles=0)
        assert idle.derived["goodput_per_host_core"]["node0"] \
            == pytest.approx((5 / interval) / 1e-3)

    def test_shard_heat_only_counts_active_shards(self):
        plane = _manual_plane()
        snapshot = _advance_and_scrape(plane, shard3=7)
        assert snapshot.derived["shard_heat"] == {"3": 7.0}
        assert plane.hot_shards() == [("3", 7.0)]

    def test_hot_shards_breaks_heat_ties_by_shard_id(self):
        plane = _manual_plane()
        metrics = plane.node("node0").metrics
        metrics.counter("dds.node0.shard7.ops").add(4)
        metrics.counter("dds.node0.shard3.ops").add(4)
        env = plane._env
        env.run(until=env.now + plane.scrape_interval_s)
        plane.scrape()
        # equal heat: numeric shard id orders the tie, every time
        assert plane.hot_shards() == [("3", 4.0), ("7", 4.0)]

    def test_attribution_hook_runs_each_scrape(self):
        class _Spy:
            calls = 0

            def collect(self, plane):
                _Spy.calls += 1

        plane = _manual_plane()
        plane.attribution = _Spy()
        _advance_and_scrape(plane, ops=1)
        _advance_and_scrape(plane, ops=1)
        assert _Spy.calls == 2

    def test_series_is_window_bounded(self):
        plane = _manual_plane(window=3)
        for ops in (1, 2, 3, 4, 5):
            _advance_and_scrape(plane, ops=ops)
        values = plane.series("goodput_ops_per_s", "node0")
        assert len(values) == 3
        assert values[-1] == pytest.approx(
            5 / plane.scrape_interval_s)

    def test_to_dict_round_trips_as_json(self):
        plane = _manual_plane()
        snapshot = _advance_and_scrape(plane, ops=3)
        document = json.loads(json.dumps(snapshot.to_dict()))
        assert document["version"] == 1
        assert document["per_node"]["node0"]["dds.node0.shard_local"] \
            == 3.0


class TestSloMonitor:
    def _snapshot(self, version, t_s, goodput):
        return TelemetrySnapshot(
            version, t_s, 5e-4, {}, {},
            {"goodput_ops_per_s": {"node0": goodput}})

    def test_min_windows_accrues_before_firing(self):
        monitor = SloMonitor([
            SloSpec("floor", metric="goodput_ops_per_s",
                    bound=100.0, kind="min", min_windows=2)])
        assert monitor.evaluate(self._snapshot(1, 1e-3, 50.0)) == []
        fired = monitor.evaluate(self._snapshot(2, 2e-3, 40.0))
        assert len(fired) == 1
        assert fired[0].windows == 2
        assert fired[0].value == 40.0

    def test_compliance_resets_the_streak(self):
        monitor = SloMonitor([
            SloSpec("floor", metric="goodput_ops_per_s",
                    bound=100.0, kind="min", min_windows=2)])
        monitor.evaluate(self._snapshot(1, 1e-3, 50.0))
        monitor.evaluate(self._snapshot(2, 2e-3, 500.0))   # complies
        assert monitor.evaluate(self._snapshot(3, 3e-3, 50.0)) == []
        assert monitor.violations == []

    def test_max_kind_and_node_filter(self):
        monitor = SloMonitor([
            SloSpec("ceiling", metric="goodput_ops_per_s",
                    bound=100.0, kind="max", node="node1")])
        snapshot = TelemetrySnapshot(
            1, 1e-3, 5e-4, {}, {},
            {"goodput_ops_per_s": {"node0": 900.0, "node1": 50.0}})
        assert monitor.evaluate(snapshot) == []    # node0 ignored
        snapshot.derived["goodput_ops_per_s"]["node1"] = 200.0
        assert len(monitor.evaluate(snapshot)) == 1

    def test_missing_series_value_is_skipped(self):
        monitor = SloMonitor([
            SloSpec("floor", metric="goodput_ops_per_s",
                    bound=100.0, kind="min", node="ghost")])
        assert monitor.evaluate(self._snapshot(1, 1e-3, 50.0)) == []

    def test_first_violation_and_spec_validation(self):
        monitor = SloMonitor([
            SloSpec("floor", metric="goodput_ops_per_s",
                    bound=100.0, kind="min")])
        monitor.evaluate(self._snapshot(1, 1e-3, 50.0))
        monitor.evaluate(self._snapshot(2, 2e-3, 40.0))
        first = monitor.first_violation("floor")
        assert isinstance(first, SloViolation)
        assert first.t_s == 1e-3
        assert monitor.first_violation("ghost") is None
        with pytest.raises(ValueError):
            SloSpec("x", metric="m", bound=1.0, kind="median")
        with pytest.raises(ValueError):
            SloSpec("x", metric="m", bound=1.0, min_windows=0)


class TestFlightRecorder:
    def _snapshot(self, version, t_s):
        return TelemetrySnapshot(version, t_s, 5e-4, {}, {}, {})

    def test_ring_ages_out_old_snapshots(self):
        recorder = FlightRecorder(retain_s=1e-3)
        for version, t_s in enumerate((1e-3, 1.5e-3, 2e-3, 3e-3), 1):
            recorder.observe(self._snapshot(version, t_s))
        retained = [snap.t_s for snap in recorder._ring]
        assert retained == [2e-3, 3e-3]

    def test_bundle_layout(self):
        plane = ClusterTelemetry(env=Environment(), tracing=True)
        tracer = plane.node("node0").tracer
        tracer.begin("request").finish()
        plane.node("node1")    # second node, no spans
        recorder = FlightRecorder(retain_s=1e-3)
        recorder.observe(self._snapshot(1, 1e-3))
        violation = SloViolation(spec="floor", node="node0",
                                 t_s=1e-3, version=1, value=1.0,
                                 bound=2.0, kind="min")
        bundle = recorder.trigger("slo_violation", plane,
                                  violations=[violation])
        assert bundle["schema"] == "repro.obs/incident"
        assert bundle["reason"] == "slo_violation"
        assert bundle["violations"][0]["spec"] == "floor"
        assert len(bundle["snapshots"]) == 1
        assert bundle["nodes"]["node0"]["spans"][0]["name"] \
            == "request"
        assert bundle["nodes"]["node1"] == {"spans": [],
                                            "open_spans": 0}
        assert "attribution" not in bundle    # no collector attached

    def test_bundle_embeds_attribution_summary(self):
        from repro.obs import AttributionCollector

        plane = ClusterTelemetry(env=Environment(), tracing=True)
        plane.node("node0")
        plane.attribution = AttributionCollector()
        plane.attribution.collect(plane)
        recorder = FlightRecorder(retain_s=1e-3)
        recorder.observe(self._snapshot(1, 1e-3))
        bundle = recorder.trigger("slo_violation", plane)
        summary = bundle["attribution"]
        assert summary["requests_attributed"] == 0
        assert summary["windows"] == 1
        assert summary["top_bottlenecks"] == []

    def test_open_spans_always_included(self):
        plane = ClusterTelemetry(env=Environment(), tracing=True)
        tracer = plane.node("node0").tracer
        tracer.begin("stuck")    # never finished
        recorder = FlightRecorder(retain_s=1e-3)
        recorder.observe(self._snapshot(1, 10.0))    # old horizon
        bundle = recorder.trigger("fault_injected", plane)
        assert bundle["nodes"]["node0"]["open_spans"] == 1
        assert bundle["nodes"]["node0"]["spans"][0]["name"] == "stuck"

    def test_capacity_bounds_bundle_spam(self):
        plane = ClusterTelemetry(env=Environment())
        recorder = FlightRecorder(retain_s=1e-3, max_incidents=2)
        assert recorder.trigger("fault_injected", plane) is not None
        assert recorder.trigger("fault_injected", plane) is not None
        assert recorder.trigger("fault_injected", plane) is None
        assert len(recorder.incidents) == 2

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            FlightRecorder(retain_s=0.0)
        with pytest.raises(ValueError):
            FlightRecorder(max_incidents=0)


class TestTenantSeries:
    def test_verdict_counters_become_tenant_series(self):
        plane = _manual_plane()
        metrics = plane.node("node0").metrics
        metrics.counter("tenant.batch.admitted").add(3)
        metrics.counter("tenant.batch.rejected").add(7)
        metrics.counter("tenant.pro.admitted").add(5)
        snapshot = _advance_and_scrape(plane)
        assert snapshot.derived["tenant_admitted"] == {
            "batch": 3.0, "pro": 5.0}
        assert snapshot.derived["tenant_rejected"] == {"batch": 7.0}

    def test_tenant_series_sum_across_nodes(self):
        plane = _manual_plane()
        plane.node("node1").metrics.counter(
            "tenant.batch.rejected").add(2)
        plane.node("node0").metrics.counter(
            "tenant.batch.rejected").add(3)
        snapshot = _advance_and_scrape(plane)
        assert snapshot.derived["tenant_rejected"] == {"batch": 5.0}


class TestOntimeFraction:
    def test_derived_from_sli_counters(self):
        plane = _manual_plane()
        metrics = plane.node("client0").metrics
        metrics.counter("sli.client0.answered").add(8)
        metrics.counter("sli.client0.ontime").add(6)
        snapshot = _advance_and_scrape(plane)
        assert snapshot.derived["ontime_fraction"]["client0"] \
            == pytest.approx(0.75)

    def test_quiet_client_reports_no_fraction(self):
        plane = _manual_plane()
        metrics = plane.node("client0").metrics
        metrics.counter("sli.client0.answered")
        metrics.counter("sli.client0.ontime")
        snapshot = _advance_and_scrape(plane)
        assert "client0" not in snapshot.derived["ontime_fraction"]

    def test_fraction_is_per_window(self):
        plane = _manual_plane()
        metrics = plane.node("client0").metrics
        answered = metrics.counter("sli.client0.answered")
        ontime = metrics.counter("sli.client0.ontime")
        answered.add(4)
        ontime.add(4)
        _advance_and_scrape(plane)
        answered.add(4)
        ontime.add(1)
        snapshot = _advance_and_scrape(plane)
        assert snapshot.derived["ontime_fraction"]["client0"] \
            == pytest.approx(0.25)
