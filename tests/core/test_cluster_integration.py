"""Cluster-scale integration: multiple DDS servers, lossy links."""

import pytest

from repro.baselines.host_tcp import make_kernel_tcp
from repro.core import DdsClient, DpdpuRuntime
from repro.hardware import (
    BLUEFIELD2,
    Switch,
    attach_to_switch,
    connect,
    make_server,
)
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


class TestMultiServerCluster:
    def test_client_stripes_across_two_dds_servers(self, env):
        """A compute node reads pages striped over two storage nodes
        through one switch — the DDC deployment the paper targets."""
        storage_nodes = [
            make_server(env, name=f"store{i}", dpu_profile=BLUEFIELD2)
            for i in range(2)
        ]
        compute_node = make_server(env, name="compute",
                                   dpu_profile=None)
        switch = Switch(env)
        attach_to_switch(switch, *storage_nodes, compute_node)

        runtimes = []
        file_ids = []
        for node in storage_nodes:
            runtime = DpdpuRuntime(node)
            file_ids.append(runtime.storage.create("shard",
                                                   size=64 * MiB))
            runtime.dds(port=9600)
            runtimes.append(runtime)

        client_tcp = make_kernel_tcp(compute_node, "c")
        got = []

        def client():
            clients = []
            for i in range(2):
                connection = yield from client_tcp.connect(
                    9600, remote=f"store{i}"
                )
                clients.append(DdsClient(connection,
                                         name=f"to-store{i}"))
            # Stripe 40 page reads round-robin over the two shards.
            for page in range(40):
                shard = page % 2
                buffer = yield from clients[shard].read(
                    file_ids[shard], (page // 2) * PAGE_SIZE
                )
                got.append(buffer.size)

        env.process(client())
        env.run(until=2.0)
        assert got == [PAGE_SIZE] * 40
        # Both shards served half the requests, all on their DPUs.
        for runtime in runtimes:
            assert runtime.storage.dpu_ops.value == 20
            assert runtime.server.host_cpu.busy_seconds() \
                / env.now < 0.01

    def test_dds_survives_lossy_network(self, env):
        """Kernel-TCP client over a 2%-loss link: retransmission keeps
        DDS request/response streams intact."""
        storage = make_server(env, name="storage",
                              dpu_profile=BLUEFIELD2)
        compute_node = make_server(env, name="compute",
                                   dpu_profile=None)
        wire = connect(storage, compute_node)
        wire.loss_rate = 0.02
        runtime = DpdpuRuntime(storage)
        file_id = runtime.storage.create("db", size=64 * MiB)
        dds = runtime.dds(port=9601)
        client_tcp = make_kernel_tcp(compute_node, "c")
        got = []

        def client():
            connection = yield from client_tcp.connect(9601)
            dds_client = DdsClient(connection)
            for i in range(25):
                buffer = yield from dds_client.read(
                    file_id, i * PAGE_SIZE
                )
                got.append(buffer.size)

        env.process(client())
        env.run(until=30.0)
        assert got == [PAGE_SIZE] * 25
        assert wire.frames_dropped.value > 0
        assert dds.offloaded.value == 25
