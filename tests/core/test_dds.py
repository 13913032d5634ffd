"""DDS tests: offload vs forward, ordering, partial offloading."""

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.core import (
    DdsClient,
    DpdpuRuntime,
    default_udf,
    encode_log_replay,
    encode_read,
    encode_write,
)
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.netstack import TcpStack
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


def _deployment(env, **dds_kwargs):
    storage = make_server(env, name="storage", dpu_profile=BLUEFIELD2)
    client_machine = make_server(env, name="client", dpu_profile=None)
    connect(storage, client_machine)
    runtime = DpdpuRuntime(storage)
    file_id = runtime.storage.create("pages.db", size=256 * MiB)
    dds = runtime.dds(port=9000, **dds_kwargs)
    client_tcp = TcpStack(
        env, client_machine.nic, client_machine.nic.rx_host,
        client_machine.host_cpu, client_machine.costs.software,
        "client-tcp",
    )
    return runtime, dds, file_id, client_tcp, client_machine


class TestUdf:
    def test_parses_real_json(self):
        request = default_udf(encode_read(7, 8192, 4096))
        assert request == {"type": "read", "file_id": 7,
                           "offset": 8192, "size": 4096}

    def test_parses_synth_label(self):
        request = default_udf(encode_write(3, 0, PAGE_SIZE))
        assert request["type"] == "write"
        assert request["file_id"] == 3

    def test_garbage_returns_none(self):
        assert default_udf(RealBuffer(b"\x00\x01\x02 not json")) is None
        assert default_udf(SynthBuffer(100, label="")) is None
        assert default_udf(RealBuffer(b"[1, 2, 3]")) is None


class TestOffloadedPath:
    def test_reads_served_without_host(self, env):
        runtime, dds, file_id, client_tcp, _ = _deployment(env)
        sizes = []

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            for i in range(30):
                buffer = yield from dds_client.read(
                    file_id, i * PAGE_SIZE
                )
                sizes.append(buffer.size)

        env.process(client(env))
        env.run(until=5.0)
        assert sizes == [PAGE_SIZE] * 30
        assert dds.offloaded.value == 30
        assert dds.forwarded.value == 0
        # The headline: host cores ~0 for offloaded requests.
        assert runtime.server.host_cpu.busy_seconds() / env.now < 0.01

    def test_writes_offloaded_and_durable(self, env):
        runtime, dds, file_id, client_tcp, _ = _deployment(env)
        acks = []

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            for i in range(10):
                request = dds_client.submit(
                    encode_write(file_id, i * PAGE_SIZE))
                acks.append((yield request.done))

        env.process(client(env))
        env.run(until=5.0)
        assert len(acks) == 10
        assert dds.offloaded.value == 10
        assert runtime.server.ssd(0).writes.value >= 10

    def test_offload_disabled_forwards_everything(self, env):
        runtime, dds, file_id, client_tcp, _ = _deployment(
            env, offload_enabled=False
        )

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            for i in range(10):
                yield from dds_client.read(file_id, i * PAGE_SIZE)

        env.process(client(env))
        env.run(until=5.0)
        assert dds.offloaded.value == 0
        assert dds.forwarded.value == 10
        assert runtime.server.host_cpu.busy_seconds() > 0

    def test_offloaded_latency_below_forwarded(self, env):
        """Figure 8: the DPU path saves the host round trips."""
        runtime, dds, file_id, client_tcp, _ = _deployment(env)
        latencies = {}

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            for i in range(20):
                yield from dds_client.read(file_id, i * PAGE_SIZE)
            latencies["offload"] = dds_client.request_latency.mean

        env.process(client(env))
        env.run(until=5.0)

        env2 = Environment()
        runtime2, dds2, file2, tcp2, _ = _deployment(
            env2, offload_enabled=False
        )

        def client2(env2):
            connection = yield from tcp2.connect(9000)
            dds_client = DdsClient(connection)
            for i in range(20):
                yield from dds_client.read(file2, i * PAGE_SIZE)
            latencies["forward"] = dds_client.request_latency.mean

        env2.process(client2(env2))
        env2.run(until=5.0)
        assert latencies["offload"] < latencies["forward"]


class TestPartialOffloading:
    def test_log_replay_goes_to_host(self, env):
        runtime, dds, file_id, client_tcp, _ = _deployment(env)

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            request = dds_client.submit(
                encode_log_replay(file_id, 0, PAGE_SIZE,
                                  working_set=1 * MiB)
            )
            yield request.done

        env.process(client(env))
        env.run(until=5.0)
        assert dds.forwarded.value == 1
        assert dds.offloaded.value == 0
        assert runtime.server.host_cpu.busy_seconds() > 0
        # The replay working set was pinned in host memory.
        assert runtime.server.host_memory.used_bytes >= 1 * MiB

    def test_mixed_workload_splits_correctly(self, env):
        runtime, dds, file_id, client_tcp, _ = _deployment(env)

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            requests = []
            for i in range(10):
                requests.append(dds_client.submit(
                    encode_read(file_id, i * PAGE_SIZE, PAGE_SIZE)
                ))
                requests.append(dds_client.submit(
                    encode_log_replay(file_id, i * PAGE_SIZE, PAGE_SIZE)
                ))
            for request in requests:
                yield request.done

        env.process(client(env))
        env.run(until=10.0)
        assert dds.offloaded.value == 10
        assert dds.forwarded.value == 10
        assert dds.offload_fraction == pytest.approx(0.5)

    def test_responses_stay_in_request_order(self, env):
        """Q2: splitting must not break transport semantics."""
        runtime, dds, file_id, client_tcp, _ = _deployment(env)
        order = []

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            requests = []
            for i in range(6):
                if i % 2 == 0:
                    # fast DPU read
                    requests.append((i, dds_client.submit(
                        encode_read(file_id, i * PAGE_SIZE, PAGE_SIZE)
                    )))
                else:
                    # slow host-forwarded replay
                    requests.append((i, dds_client.submit(
                        encode_log_replay(file_id, i * PAGE_SIZE,
                                          PAGE_SIZE)
                    )))
            for index, request in requests:
                yield request.done
                order.append(index)

        env.process(client(env))
        env.run(until=10.0)
        # Completion order observed by the client equals issue order,
        # even though DPU reads finish first internally.
        assert order == [0, 1, 2, 3, 4, 5]


class TestUnknownMessages:
    def test_unparseable_request_handled_by_host(self, env):
        runtime, dds, file_id, client_tcp, _ = _deployment(env)
        done = []

        def client(env):
            connection = yield from client_tcp.connect(9000)
            dds_client = DdsClient(connection)
            request = dds_client.submit(RealBuffer(b"OPAQUE-RPC-V1"))
            yield request.done
            done.append(True)

        env.process(client(env))
        env.run(until=5.0)
        assert done == [True]
        assert dds.forwarded.value == 1
