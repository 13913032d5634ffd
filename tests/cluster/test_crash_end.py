"""A DPU crash window that ends: hostbench Finding 5, pinned.

Node1's Arm cores are down for 1 ms in the middle of a steady read
load from three clients, one homed on each node.  Once the window
ends, every request should be answered and node1 should serve from
its DPU again.  Neither holds: the requests in flight on node1 when
it crashed are never answered (clients have no deadline), and the
traffic director's failover is one-way for the run, so node1's
match-all rule keeps steering its DDS frames to the host.
"""

import pytest

from repro.cluster import Cluster, ClusterClient, encode_shard_read
from repro.faults import FaultInjector, FaultPlan
from repro.sim import Environment

CRASH_S = (1e-3, 2e-3)
HORIZON_S = 8e-3
N_SHARDS = 16


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="hostbench Finding 5: requests stranded on a crashed DPU "
           "wait forever and the node is never re-admitted; the fix is "
           "ROADMAP 1(b)'s ClusterClient deadline")
def test_a_one_ms_crash_strands_nothing_and_the_node_returns():
    env = Environment()
    plan = FaultPlan(seed=7).cpu_crash(*CRASH_S, site="cpu.node1.dpu.cpu")
    cluster = Cluster(env, 3, n_shards=N_SHARDS,
                      injector=FaultInjector(env, plan))
    clients = [ClusterClient(cluster, f"c{i}", home=f"node{i}")
               for i in range(3)]

    def load():
        for client in clients:
            yield from client.connect_all()
        for tag in range(150):
            shard = tag % N_SHARDS
            for client in clients:
                client.submit(encode_shard_read(shard, 0), shard, tag=tag)
            yield env.timeout(20e-6)

    env.process(load())
    env.run(until=HORIZON_S)

    node1 = cluster.node("node1")
    if node1.breaker.trips.value != 1:
        # not an AssertionError: the xfail must not swallow this
        pytest.fail("node1's breaker never tripped: the scenario no "
                    "longer reaches Finding 5")
    pending = sum(client.outcomes()["pending"] for client in clients)
    steered = node1.server.nic.flow_table.classify(
        {"proto": "tcp", "port": cluster.port})
    assert (pending, steered) == (0, "dpu")
