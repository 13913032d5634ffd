"""Cluster routing: local vs forwarded shard ops, error envelopes."""

import json

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.cluster import (
    Cluster,
    ClusterClient,
    encode_shard_read,
    encode_shard_write,
    response_ok,
)
from repro.sim import Environment
from repro.units import PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


def _connect(env, client):
    env.run(until=env.process(client.connect_all()))


class TestResponseOk:
    def test_none_is_a_failure(self):
        assert not response_ok(None)

    def test_synthetic_payload_is_ok(self):
        assert response_ok(SynthBuffer(PAGE_SIZE))

    def test_error_envelope_is_a_failure(self):
        body = json.dumps({"error": "ClusterError", "detail": "x"})
        assert not response_ok(RealBuffer(body.encode()))

    def test_plain_json_is_ok(self):
        assert response_ok(RealBuffer(b'{"rows": 3}'))

    def test_non_json_bytes_are_ok(self):
        assert response_ok(RealBuffer(b"\x00\x01raw"))


class TestClusterConstruction:
    def test_needs_at_least_one_node(self, env):
        with pytest.raises(ValueError):
            Cluster(env, 0)

    def test_shard_bytes_must_be_page_aligned(self, env):
        assert Cluster(env, 1).shard_bytes % PAGE_SIZE == 0

    def test_every_node_gets_every_shard_file(self, env):
        cluster = Cluster(env, 2, n_shards=4)
        for node in cluster.nodes:
            assert sorted(node.shard_files) == [0, 1, 2, 3]

    def test_owned_shards_partition_the_space(self, env):
        cluster = Cluster(env, 3, n_shards=12)
        owned = sorted(
            shard for node in cluster.nodes
            for shard in node.owned_shards()
        )
        assert owned == list(range(12))


class TestShardRequests:
    def test_accurate_clients_stay_local(self, env):
        cluster = Cluster(env, 2, n_shards=8)
        client = ClusterClient(cluster, "c0")    # stale_fraction 0
        _connect(env, client)
        for shard in range(8):
            client.submit(encode_shard_read(shard, 0), shard)
        env.run(until=env.now + 10e-3)
        assert client.outcomes() == {"ok": 8, "errors": 0,
                                     "pending": 0}
        snapshot = cluster.metrics_snapshot()
        assert sum(s["shard_local"] for s in snapshot.values()) == 8
        assert sum(s["shard_routed"] for s in snapshot.values()) == 0

    def test_stale_clients_are_forwarded_dpu_side(self, env):
        cluster = Cluster(env, 2, n_shards=8)
        client = ClusterClient(cluster, "c0", home="node0",
                               stale_fraction=1.0)
        _connect(env, client)
        # Every request lands on node0; the ones owned elsewhere must
        # be answered correctly anyway, via the DPU-side router.
        remote = [s for s in range(8)
                  if cluster.shardmap.owner_of_shard(s) != "node0"]
        assert remote, "placement degenerate: node0 owns everything"
        for tag, shard in enumerate(range(8)):
            message = (encode_shard_read(shard, 0) if tag % 2 else
                       encode_shard_write(shard, PAGE_SIZE))
            client.submit(message, shard, tag=tag)
        env.run(until=env.now + 10e-3)
        assert client.outcomes()["ok"] == 8
        node0 = cluster.metrics_snapshot()["node0"]
        assert node0["shard_routed"] == len(remote)
        assert node0["forwards"] == len(remote)
        assert node0["forward_failures"] == 0

    def test_reads_return_shard_bytes(self, env):
        cluster = Cluster(env, 1, n_shards=2)
        client = ClusterClient(cluster, "c0")
        _connect(env, client)
        request = client.submit(encode_shard_read(0, 0), 0)
        env.run(until=env.now + 5e-3)
        assert request.completed and not request.failed
        assert request.data.size == PAGE_SIZE

    def test_out_of_range_shard_yields_error_body(self, env):
        cluster = Cluster(env, 2, n_shards=8)
        client = ClusterClient(cluster, "c0")
        _connect(env, client)
        bad = client.submit(encode_shard_read(99, 0), shard=0)
        good = client.submit(encode_shard_read(1, 0), shard=1)
        env.run(until=env.now + 10e-3)
        # The bad request completes (no wedged responder) with a JSON
        # error envelope; the one behind it is unaffected.
        assert bad.completed and not bad.failed
        body = json.loads(bad.data.data.decode())
        assert body["error"] == "ClusterError"
        assert good.completed and response_ok(good.data)
        outcomes = client.outcomes()
        assert outcomes == {"ok": 1, "errors": 1, "pending": 0}
        snapshot = cluster.metrics_snapshot()
        assert sum(s["shard_errors"] for s in snapshot.values()) == 1

    def test_offset_overrun_yields_error_body(self, env):
        cluster = Cluster(env, 1, n_shards=2)
        client = ClusterClient(cluster, "c0")
        _connect(env, client)
        request = client.submit(
            encode_shard_read(0, 0, size=cluster.shard_bytes + PAGE_SIZE),
            shard=0)
        env.run(until=env.now + 5e-3)
        assert request.completed
        assert not response_ok(request.data)

    def test_non_shard_requests_still_served(self, env):
        # The cluster DDS server remains a superset of the stock one:
        # plain (shard-less) DDS messages take the unmodified path.
        from repro.core.dds import encode_read
        cluster = Cluster(env, 1, n_shards=2)
        node = cluster.nodes[0]
        file_id = node.runtime.storage.create("plain", size=PAGE_SIZE)
        client = ClusterClient(cluster, "c0")
        _connect(env, client)
        request = client._clients["node0"].submit(
            encode_read(file_id, 0, PAGE_SIZE))
        env.run(until=env.now + 5e-3)
        assert request.completed and not request.failed
        snapshot = cluster.metrics_snapshot()["node0"]
        assert snapshot["shard_local"] == 0
