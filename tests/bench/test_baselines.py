"""Tests for the host-only baseline paths."""

import pytest

from repro.baselines import (
    HostComputeBaseline,
    HostServedStorage,
    HostStoragePath,
    make_host_rdma_node,
    make_kernel_tcp,
)
from repro.buffers import RealBuffer
from repro.core import DdsClient
from repro.hardware import connect, make_server
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


class TestHostCompute:
    def test_single_core_latency_matches_cost_model(self, env):
        server = make_server(env)
        baseline = HostComputeBaseline(server.host_cpu)

        def job():
            yield from baseline.run_kernel("compress",
                                           RealBuffer(b"x" * 1000))

        env.run(until=env.process(job()))
        # 2000 base + 20/byte at 3 GHz.
        assert env.now == pytest.approx((2000 + 20_000) / 3e9)


class TestHostStoragePath:
    def test_kernel_path_costs_calibrated_cycles(self, env):
        server = make_server(env)
        path = HostStoragePath(server.host_cpu, server.ssd(0),
                               server.costs.software, "kernel")

        def reads():
            for _ in range(10):
                yield from path.read_page()

        env.run(until=env.process(reads()))
        assert server.host_cpu.cycles_charged.value == \
            pytest.approx(10 * 18_000)

    def test_spdk_cheaper_than_kernel(self, env):
        server = make_server(env)
        costs = server.costs.software
        kernel = HostStoragePath(server.host_cpu, server.ssd(0),
                                 costs, "kernel")
        spdk = HostStoragePath(server.host_cpu, server.ssd(0),
                               costs, "spdk_host")
        assert spdk._cycles_per_page < kernel._cycles_per_page / 5

    def test_kernel_latency_includes_wakeup(self, env):
        server = make_server(env)
        costs = server.costs.software
        path = HostStoragePath(server.host_cpu, server.ssd(0),
                               costs, "kernel")

        def read():
            yield from path.read_page()

        env.run(until=env.process(read()))
        device_floor = server.ssd(0).spec.read_latency_s
        assert env.now > device_floor + costs.kernel_wakeup_latency_s

    def test_unknown_path_rejected(self, env):
        server = make_server(env)
        with pytest.raises(ValueError):
            HostStoragePath(server.host_cpu, server.ssd(0),
                            server.costs.software, "dax")


class TestHostServed:
    def test_serves_remote_reads_on_host(self, env):
        storage = make_server(env, name="storage")
        client_machine = make_server(env, name="client")
        connect(storage, client_machine)
        served = HostServedStorage(storage, port=9300)
        file_id = served.create_file("db", 64 * MiB)
        client_tcp = make_kernel_tcp(client_machine, "c")
        sizes = []

        def client():
            connection = yield from client_tcp.connect(9300)
            dds_client = DdsClient(connection)
            for i in range(10):
                buffer = yield from dds_client.read(file_id,
                                                    i * PAGE_SIZE)
                sizes.append(buffer.size)

        env.process(client())
        env.run(until=2.0)
        assert sizes == [PAGE_SIZE] * 10
        assert served.requests_served.value == 10
        # Everything ran on the host CPU.
        assert storage.host_cpu.busy_seconds() > 0


class TestFactories:
    def test_kernel_tcp_mode(self, env):
        server = make_server(env)
        stack = make_kernel_tcp(server)
        assert stack._per_msg == server.costs.software.tcp_cycles_per_msg
        assert stack.cpu is server.host_cpu

    def test_host_rdma_node_uses_host_cpu(self, env):
        server = make_server(env)
        node = make_host_rdma_node(server)
        assert node.cpu is server.host_cpu
