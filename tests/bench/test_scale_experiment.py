"""Smoke coverage for the SC scale-out experiment."""

from repro.bench import experiments_scale
from repro.bench.__main__ import EXPERIMENTS
from repro.bench.experiments_scale import (
    _rack_point,
    _scale_point,
    sharding_properties,
)
from repro.bench.harness import shard_stream
from repro.units import PAGE_SIZE
from repro.workloads.arrivals import arrival_count


class TestRegistration:
    def test_scale_is_a_registered_experiment(self):
        assert "scale" in EXPERIMENTS
        description, _ = EXPERIMENTS["scale"]
        assert description.startswith("SC:")


class TestStreams:
    def test_streams_are_deterministic(self):
        first = shard_stream(31, 0, 50, 32, 16 * PAGE_SIZE)
        second = shard_stream(31, 0, 50, 32, 16 * PAGE_SIZE)
        assert [entry[1:] for entry in first] == \
            [entry[1:] for entry in second]

    def test_distinct_clients_get_distinct_streams(self):
        a = [shard for _, shard, _ in
             shard_stream(31, 0, 50, 32, 16 * PAGE_SIZE)]
        b = [shard for _, shard, _ in
             shard_stream(31, 1, 50, 32, 16 * PAGE_SIZE)]
        assert a != b


class TestShardingProperties:
    def test_invariants(self):
        properties = sharding_properties()
        assert properties["deterministic"] == 1.0
        assert properties["minimal_movement"] == 1.0
        assert properties["balance_factor"] >= 1.0
        assert 0.0 < properties["moved_fraction"] < 1.0
        # All 64 shards accounted for across 8 nodes.
        assert properties["max_shards_per_node"] >= \
            properties["min_shards_per_node"]
        assert properties["expected_moved_fraction"] == 1.0 / 8


class TestScalePoint:
    def test_single_node_point_serves_everything_locally(self):
        point = _scale_point(1, 30_000.0, 2e-3, seed=5)
        assert point["ok"] > 0
        assert point["goodput_ops_per_s"] > 0
        assert point["routed_fraction"] == 0.0     # no stale clients
        assert point["total_dpu_cores"] > 0        # work ran on DPUs

    def test_two_node_point_routes_the_stale_fraction(self):
        point = _scale_point(2, 30_000.0, 2e-3, seed=5)
        assert point["ok"] > 0
        assert point["routed_fraction"] > 0.0
        # Offload holds: hosts stay close to idle at this rate.
        assert point["host_cores_per_node"] < 1.0


class TestRackPoint:
    def test_every_arrival_fires_and_every_core_second_counts_once(
            self, monkeypatch):
        """A 2-node, 1 ms rack point: nothing skipped, nothing doubled.

        Each DPU dedicates two cores (the NE poller and the SE
        reactor); serving adds a fraction of a core on top.  A shortcut
        that drops arrivals shows in ``ok``, one that credits the
        dedicated cores twice shows in ``dpu_cores_per_node``.
        """
        duration_s = 1e-3
        monkeypatch.setattr(experiments_scale, "RACK_DURATION_S",
                            duration_s)
        point = _rack_point(2)
        clients = int(point["clients"])
        offered = clients * arrival_count(
            point["offered_ops_per_s"] / clients, duration_s)
        assert point["ok"] == offered > 0
        assert 2.0 <= point["dpu_cores_per_node"] <= 2.6
