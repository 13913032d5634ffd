"""DPU failure -> probe detection -> shard migration -> cutover."""

from repro.cluster import ClusterClient, Cluster, Rebalancer
from repro.cluster import encode_shard_read
from repro.faults import FaultInjector, FaultPlan
from repro.sim import Environment

#: sim horizon: fault at 3 ms, drain completes well inside 12 ms
FAULT_AT_S = 3e-3
HORIZON_S = 12e-3


def _crashed_cluster(env, with_rebalancer, n_nodes=3, n_shards=16):
    plan = FaultPlan(seed=7).cpu_crash(
        FAULT_AT_S, 10 * HORIZON_S, site="cpu.node1.dpu.cpu")
    injector = FaultInjector(env, plan)
    cluster = Cluster(env, n_nodes, n_shards=n_shards,
                      injector=injector)
    rebalancer = Rebalancer(cluster) if with_rebalancer else None
    return cluster, rebalancer


class TestRebalance:
    def test_failed_node_is_drained_and_retired(self):
        env = Environment()
        cluster, rebalancer = _crashed_cluster(env, True)
        node1 = cluster.node("node1")
        owned_before = node1.owned_shards()
        assert owned_before, "placement degenerate: node1 owns nothing"
        env.run(until=HORIZON_S)

        assert node1.breaker.trips.value >= 1
        assert node1.retired
        assert "node1" not in cluster.shardmap.nodes
        assert rebalancer.migrated_shards.value == len(owned_before)
        assert rebalancer.migrated_bytes.value == \
            len(owned_before) * cluster.shard_bytes
        # The failed node's host exported every shard over the
        # breaker's failover path.
        exporter = cluster.migration_services["node1"]
        assert exporter.exports.value == len(owned_before)
        assert exporter.export_errors.value == 0

    def test_cutover_is_per_shard_and_overrides_drain(self):
        env = Environment()
        cluster, rebalancer = _crashed_cluster(env, True)
        owned_before = cluster.node("node1").owned_shards()
        env.run(until=HORIZON_S)

        # Each shard cut over individually, after the fault fired...
        assert sorted(rebalancer.cutover_times) == sorted(owned_before)
        assert all(t > FAULT_AT_S
                   for t in rebalancer.cutover_times.values())
        # ...and once node1 left the ring, the overrides all agreed
        # with the survivor placement and were garbage-collected.
        assert cluster.shardmap._overrides == {}

    def test_reads_succeed_against_new_owners(self):
        env = Environment()
        cluster, _ = _crashed_cluster(env, True)
        owned_before = cluster.node("node1").owned_shards()
        env.run(until=HORIZON_S)
        assert cluster.node("node1").retired

        client = ClusterClient(cluster, "c0", home="node0",
                               stale_fraction=0.2)
        env.run(until=env.process(client.connect_all()))
        assert "node1" not in client._clients    # retired: skipped
        for tag, shard in enumerate(owned_before):
            client.submit(encode_shard_read(shard, 0), shard, tag=tag)
        env.run(until=env.now + 10e-3)
        outcomes = client.outcomes()
        assert outcomes["ok"] == len(owned_before)
        assert outcomes["errors"] == 0

    def test_without_rebalancer_nothing_moves(self):
        env = Environment()
        cluster, _ = _crashed_cluster(env, False)
        env.run(until=HORIZON_S)
        assert not cluster.node("node1").retired
        assert "node1" in cluster.shardmap.nodes
        assert cluster.shardmap._overrides == {}

    def test_single_node_cluster_never_drains(self):
        # With nobody to drain to, the rebalancer must not try.
        env = Environment()
        plan = FaultPlan(seed=7).cpu_crash(
            FAULT_AT_S, 10 * HORIZON_S, site="cpu.node0.dpu.cpu")
        cluster = Cluster(env, 1, n_shards=4,
                          injector=FaultInjector(env, plan))
        rebalancer = Rebalancer(cluster)
        env.run(until=HORIZON_S)
        assert not cluster.nodes[0].retired
        assert rebalancer.migrated_shards.value == 0
        assert rebalancer.cutover_times == {}


class TestPullDeadline:
    def test_stalled_pull_exhausts_retries_and_fails(self):
        env = Environment()
        cluster = Cluster(env, 2)
        # A deadline far below one shard's transfer time: every
        # attempt stalls, the retry budget burns down, and the pull
        # is declared failed without cutting the shard over.
        rebalancer = Rebalancer(cluster, pull_deadline_s=1.0e-6,
                                pull_retry_budget=2)
        source = cluster.node("node0")
        dest = cluster.node("node1")
        shard = next(iter(source.owned_shards()))
        status = {"failed": 0}
        env.process(rebalancer.pull(source, dest, [shard], status))
        env.run(until=0.05)
        assert status["failed"] == 1
        # 1 try + 2 retries, each on its own connection
        exporter = cluster.migration_services["node0"]
        assert exporter.exports.value == 3
        assert shard not in rebalancer.cutover_times
        assert cluster.shardmap.owner_of_shard(shard) == "node0"

    def test_generous_deadline_lands_the_cutover(self):
        env = Environment()
        cluster = Cluster(env, 2)
        rebalancer = Rebalancer(cluster, pull_deadline_s=20.0e-3,
                                pull_retry_budget=2)
        source = cluster.node("node0")
        dest = cluster.node("node1")
        shard = next(iter(source.owned_shards()))
        status = {"failed": 0}
        env.process(rebalancer.pull(source, dest, [shard], status))
        env.run(until=0.05)
        assert status["failed"] == 0
        assert cluster.migration_services["node0"].exports.value == 1
        assert cluster.shardmap.owner_of_shard(shard) == "node1"
        assert rebalancer.cutover_times[shard] > 0
