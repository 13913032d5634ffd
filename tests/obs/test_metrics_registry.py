"""Tests for the unified metrics registry (``repro.obs.metrics``)."""

import pytest

from repro.obs import MetricsRegistry
from repro.sim.stats import Counter, Tally, TimeWeighted


class TestCreateOrFetch:
    def test_counter_is_cached(self):
        registry = MetricsRegistry()
        assert registry.counter("se.ops") is registry.counter("se.ops")
        assert len(registry) == 1

    def test_labels_qualify_the_name(self):
        registry = MetricsRegistry()
        dpu = registry.counter("cache.hits", tier="dpu")
        host = registry.counter("cache.hits", tier="host")
        assert dpu is not host
        assert "cache.hits{tier=dpu}" in registry
        assert "cache.hits{tier=host}" in registry
        assert registry.get("cache.hits", tier="dpu") is dpu

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        first = registry.counter("m", b="2", a="1")
        second = registry.counter("m", a="1", b="2")
        assert first is second
        assert len(registry) == 1 and "m{a=1,b=2}" in registry

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.register("x", Tally("x"))
        with pytest.raises(TypeError):
            registry.counter("x")


class TestAdoption:
    def test_register_same_object_is_idempotent(self):
        registry = MetricsRegistry()
        counter = Counter("existing")
        assert registry.register("ne.ops", counter) is counter
        assert registry.register("ne.ops", counter) is counter
        assert len(registry) == 1

    def test_duplicate_name_different_object_rejected(self):
        registry = MetricsRegistry()
        registry.register("ne.ops", Counter("one"))
        with pytest.raises(ValueError):
            registry.register("ne.ops", Counter("two"))

    def test_non_instrument_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.register("bogus", object())
        with pytest.raises(TypeError):
            registry.register("bogus", 42)

    def test_adopted_instrument_feeds_snapshot(self):
        registry = MetricsRegistry()
        counter = Counter("engine-side")
        registry.register("se.host_ops", counter)
        counter.add(7)
        assert registry.snapshot(now=1.0)["se.host_ops"] == 7.0


class TestSnapshot:
    def test_metricset_key_conventions(self):
        registry = MetricsRegistry()
        registry.counter("ops").add(3)
        registry.register("lat", Tally("lat"))
        registry.get("lat").observe(0.25)
        gauge = TimeWeighted("depth")
        registry.register("depth", gauge)
        gauge.set(4.0, 1.0)
        snapshot = registry.snapshot(now=2.0)
        assert snapshot["ops"] == 3.0
        assert snapshot["lat.count"] == 1
        assert snapshot["lat.mean"] == 0.25
        assert snapshot["lat.p50"] == 0.25
        assert snapshot["lat.p99"] == 0.25
        assert snapshot["depth.avg"] == pytest.approx(2.0)
        assert snapshot["depth.peak"] == 4.0

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last")
        registry.counter("a.first")
        assert list(registry.snapshot(0.0)) == ["a.first", "z.last"]

    def test_render_table(self):
        registry = MetricsRegistry()
        registry.counter("se.ops").add(12)
        text = registry.render_table(now=1.0)
        assert "se.ops" in text
        assert "12" in text
        assert "metric" in text

    def test_empty_registry_renders(self):
        assert "no metrics" in MetricsRegistry().render_table(0.0)


class TestPrefixFilter:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("se.ops").add(1)
        registry.counter("se.bytes").add(2)
        registry.counter("ne.ops").add(3)
        return registry

    def test_snapshot_prefix_filters(self):
        registry = self._populated()
        snapshot = registry.snapshot(now=0.0, prefix="se.")
        assert list(snapshot) == ["se.bytes", "se.ops"]

    def test_render_table_prefix_filters(self):
        registry = self._populated()
        text = registry.render_table(now=0.0, prefix="se.")
        assert "se.ops" in text
        assert "ne.ops" not in text

    def test_render_table_prefix_no_match(self):
        registry = self._populated()
        text = registry.render_table(now=0.0, prefix="zz.")
        assert "no metrics" in text and "zz." in text

    def test_render_table_is_sorted(self):
        registry = self._populated()
        lines = registry.render_table(now=0.0).splitlines()
        names = [line.split()[0] for line in lines[2:]]
        assert names == sorted(names)


class TestDiff:
    def test_counters_delta_against_prev(self):
        registry = MetricsRegistry()
        ops = registry.counter("se.ops")
        ops.add(10)
        prev = registry.snapshot(now=0.0)
        ops.add(4)
        assert registry.diff(prev, now=1.0) == {"se.ops": 4.0}

    def test_empty_prev_diffs_against_zero(self):
        registry = MetricsRegistry()
        registry.counter("se.ops").add(7)
        assert registry.diff({}, now=0.0) == {"se.ops": 7.0}

    def test_metric_born_after_prev(self):
        registry = MetricsRegistry()
        registry.counter("se.ops").add(3)
        prev = registry.snapshot(now=0.0)
        registry.counter("ne.ops").add(5)    # new since prev
        diff = registry.diff(prev, now=1.0)
        assert diff == {"ne.ops": 5.0, "se.ops": 0.0}

    def test_tally_count_is_delta_percentiles_last_value(self):
        registry = MetricsRegistry()
        latency = registry.register("se.lat", Tally("se.lat"))
        latency.observe(1.0)
        prev = registry.snapshot(now=0.0)
        latency.observe(3.0)
        diff = registry.diff(prev, now=1.0)
        assert diff["se.lat.count"] == 1.0
        assert diff["se.lat.mean"] == pytest.approx(2.0)
        assert 2.0 < diff["se.lat.p99"] <= 3.0    # interpolated tail

    def test_gauge_is_last_value(self):
        registry = MetricsRegistry()
        level = registry.register("se.queue", TimeWeighted("se.queue"))
        level.set(4.0, now=0.0)
        prev = registry.snapshot(now=1.0)
        level.set(2.0, now=1.0)
        diff = registry.diff(prev, now=2.0)
        assert diff["se.queue.peak"] == 4.0
        assert diff["se.queue.avg"] == pytest.approx(3.0)

    def test_prefix_filters_and_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("se.ops").add(1)
        registry.counter("se.bytes").add(2)
        registry.counter("ne.ops").add(3)
        diff = registry.diff({}, now=0.0, prefix="se.")
        assert list(diff) == ["se.bytes", "se.ops"]
