"""Smoke coverage for the SC scale-out experiment."""

from dataclasses import replace

from repro.bench.__main__ import EXPERIMENTS
from repro.bench.experiments_scale import scale_unit, sharding_properties
from repro.bench.harness import ROWS, homed, shard_stream
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
    """The weak-scaling sweep's points: one client per node."""

    def _point(self, name):
        row = replace(ROWS["scale"][name], rate=30_000.0, duration_s=2e-3)
        return scale_unit(name, row, None)

    def test_single_node_point_serves_everything_locally(self):
        point = self._point("goodput.1")
        assert point["ok"] > 0
        assert point["goodput_ops_per_s"] > 0
        assert point["routed_fraction"] == 0.0     # no stale clients
        assert point["total_dpu_cores"] > 0        # work ran on DPUs

    def test_two_node_point_routes_the_stale_fraction(self):
        point = self._point("goodput.2")
        assert point["ok"] > 0
        assert point["routed_fraction"] > 0.0
        # Offload holds: hosts stay close to idle at this rate.
        assert point["host_cores_per_node"] < 1.0


class TestRackPoint:
    """The rack sweep's points: a shared fleet of eight clients."""

    def test_every_arrival_fires_and_every_core_second_counts_once(self):
        """A 2-node, 1 ms rack point: nothing skipped, nothing doubled.

        Each DPU dedicates two cores (the NE poller and the SE
        reactor); serving adds a fraction of a core on top.  A shortcut
        that drops arrivals shows in ``ok``, one that credits the
        dedicated cores twice shows in ``dpu_cores_per_node``.
        """
        duration_s = 1e-3
        rack = ROWS["scale"]["rack.8"]
        clients = len(rack.clients)
        row = replace(rack, nodes=2, clients=homed(clients, 2),
                      rate=25_000.0 * 2 / clients, duration_s=duration_s)
        point = scale_unit("rack.2", row, None)
        offered = clients * arrival_count(row.rate, duration_s)
        assert point["ok"] == offered > 0
        assert 2.0 <= point["dpu_cores_per_node"] <= 2.6
