"""ShardMap placement: determinism, minimal movement, overrides."""

import zlib

import pytest

from repro.cluster import ShardMap, stable_hash

NODES = [f"node{i}" for i in range(4)]


class TestStableHash:
    def test_is_crc32_not_builtin_hash(self):
        # The determinism contract: crc32 over the utf-8 bytes, so the
        # value is identical in every process regardless of hash seed.
        assert stable_hash("shard:7") == zlib.crc32(b"shard:7")

    def test_distinct_inputs_spread(self):
        points = {stable_hash(f"node{i}#{r}")
                  for i in range(8) for r in range(64)}
        assert len(points) == 8 * 64     # no collisions at this scale


class TestPlacement:
    def test_same_inputs_same_placement(self):
        first = ShardMap(32, NODES, replicas=64)
        second = ShardMap(32, NODES, replicas=64)
        assert first.assignment() == second.assignment()

    def test_every_shard_placed_exactly_once(self):
        shardmap = ShardMap(32, NODES)
        placed = sorted(
            shard for shards in shardmap.assignment().values()
            for shard in shards
        )
        assert placed == list(range(32))

    def test_insertion_order_is_irrelevant(self):
        forward = ShardMap(32, NODES)
        backward = ShardMap(32, list(reversed(NODES)))
        assert forward.assignment() == backward.assignment()


class TestMinimalMovement:
    def test_plan_without_returns_exactly_the_nodes_shards(self):
        shardmap = ShardMap(64, NODES)
        owned = set(shardmap.assignment()["node2"])
        plan = shardmap.plan_without("node2")
        assert set(plan) == owned
        assert all(dest != "node2" for dest in plan.values())

    def test_survivors_keep_their_shards(self):
        shardmap = ShardMap(64, NODES)
        plan = shardmap.plan_without("node2")
        survivors = ShardMap(64, [n for n in NODES if n != "node2"])
        for shard in range(64):
            before = shardmap.owner_of_shard(shard)
            after = survivors.owner_of_shard(shard)
            if shard in plan:
                assert after == plan[shard]
            else:
                assert after == before     # nobody else moved

    def test_plan_is_pure(self):
        shardmap = ShardMap(64, NODES)
        version = shardmap.version
        shardmap.plan_without("node1")
        assert shardmap.version == version
        assert shardmap.nodes == NODES


class TestOverrides:
    def test_override_wins_over_ring(self):
        shardmap = ShardMap(16, NODES)
        shard = next(s for s in range(16)
                     if shardmap.owner_of_shard(s) != "node3")
        shardmap.set_override(shard, "node3")
        assert shardmap.owner_of_shard(shard) == "node3"
        assert shardmap._overrides == {shard: "node3"}

    def test_override_bumps_version(self):
        shardmap = ShardMap(16, NODES)
        version = shardmap.version
        shardmap.set_override(0, "node1")
        assert shardmap.version == version + 1

    def test_remove_node_drops_redundant_overrides(self):
        # Migrate every shard node1 owns per the failover plan, then
        # remove node1: every override now agrees with the new ring
        # and must be garbage-collected.
        shardmap = ShardMap(32, NODES)
        for shard, dest in shardmap.plan_without("node1").items():
            shardmap.set_override(shard, dest)
        shardmap.remove_node("node1")
        assert shardmap._overrides == {}
        assert "node1" not in shardmap.nodes

    def test_disagreeing_override_survives_removal(self):
        shardmap = ShardMap(32, NODES)
        plan = shardmap.plan_without("node1")
        shard = next(iter(plan))
        off_plan = next(n for n in NODES
                        if n not in ("node1", plan[shard]))
        shardmap.set_override(shard, off_plan)
        shardmap.remove_node("node1")
        assert shardmap._overrides.get(shard) == off_plan


class TestErrors:
    def test_duplicate_node_rejected(self):
        shardmap = ShardMap(8, ["a", "b"])
        with pytest.raises(ValueError):
            shardmap.add_node("a")

    def test_unknown_node_removal_rejected(self):
        shardmap = ShardMap(8, ["a", "b"])
        with pytest.raises(ValueError):
            shardmap.remove_node("ghost")

    def test_cannot_plan_removal_of_last_node(self):
        shardmap = ShardMap(8, ["only"])
        with pytest.raises(ValueError):
            shardmap.plan_without("only")

    def test_out_of_range_shard_rejected(self):
        shardmap = ShardMap(8, ["a", "b"])
        with pytest.raises(ValueError):
            shardmap.owner_of_shard(8)
        with pytest.raises(ValueError):
            shardmap.set_override(-1, "a")

    def test_override_to_unknown_node_rejected(self):
        shardmap = ShardMap(8, ["a", "b"])
        with pytest.raises(ValueError):
            shardmap.set_override(0, "ghost")

    def test_empty_map_has_no_owner(self):
        shardmap = ShardMap(8)
        with pytest.raises(ValueError):
            shardmap.owner_of_shard(0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(0, ["a"])
        with pytest.raises(ValueError):
            ShardMap(8, ["a"], replicas=0)
