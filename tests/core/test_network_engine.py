"""Network Engine tests: offloaded TCP sockets, offloaded RDMA, DFI."""

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.core import DpdpuRuntime
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.netstack import RdmaNode
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def pair(env):
    a = make_server(env, name="a", dpu_profile=BLUEFIELD2)
    b = make_server(env, name="b", dpu_profile=BLUEFIELD2)
    connect(a, b)
    return DpdpuRuntime(a), DpdpuRuntime(b)


class TestOffloadedTcp:
    def test_socket_roundtrip(self, env, pair):
        runtime_a, runtime_b = pair
        listener = runtime_b.network.listen(6000)
        got = {}

        def client(env):
            sock = yield runtime_a.network.connect(6000).done
            yield sock.send(RealBuffer(b"offloaded hello")).done

        def server(env):
            sock = yield listener.accept().done
            buffer = yield sock.recv().done
            got["data"] = buffer.data

        env.process(client(env))
        env.process(server(env))
        env.run(until=2.0)
        assert got["data"] == b"offloaded hello"

    def test_host_cost_far_below_kernel_tcp(self, env, pair):
        """Section 6's point: host pays ring writes, not the stack."""
        runtime_a, runtime_b = pair
        host_cpu = runtime_a.server.host_cpu
        listener = runtime_b.network.listen(6001)
        n_messages = 50

        def client(env):
            sock = yield runtime_a.network.connect(6001).done
            for _ in range(n_messages):
                yield sock.send(SynthBuffer(PAGE_SIZE)).done

        def server(env):
            sock = yield listener.accept().done
            for _ in range(n_messages):
                yield sock.recv().done

        env.process(client(env))
        env.process(server(env))
        env.run(until=5.0)
        per_msg = host_cpu.cycles_charged.value / n_messages
        # Kernel TCP costs ~13.5 K cycles per 8 KiB message; the NE
        # front-end should be well under 3 K.
        assert per_msg < 3_000

    def test_dpu_pays_the_protocol_cost(self, env, pair):
        runtime_a, runtime_b = pair
        listener = runtime_b.network.listen(6002)

        def client(env):
            sock = yield runtime_a.network.connect(6002).done
            for _ in range(20):
                yield sock.send(SynthBuffer(PAGE_SIZE)).done

        def server(env):
            sock = yield listener.accept().done
            for _ in range(20):
                yield sock.recv().done

        env.process(client(env))
        env.process(server(env))
        env.run(until=5.0)
        assert runtime_a.server.dpu.cpu.cycles_charged.value > 20 * 3_000

    def test_tcp_frames_steered_to_dpu(self, env, pair):
        runtime_a, runtime_b = pair
        listener = runtime_b.network.listen(6003)

        def client(env):
            sock = yield runtime_a.network.connect(6003).done
            yield sock.send(SynthBuffer(64)).done

        def server(env):
            sock = yield listener.accept().done
            yield sock.recv().done

        env.process(client(env))
        env.process(server(env))
        env.run(until=2.0)
        # Nothing TCP should have landed in the host ingress queues.
        assert len(runtime_b.server.nic.rx_host) == 0


class TestOffloadedRdma:
    def _remote(self, env, server):
        node = RdmaNode(env, server.nic, server.nic.rx_dpu,
                        server.host_cpu, server.costs.software,
                        "remote-rdma")
        node.register_region("mem", 64 * MiB)
        return node

    def test_write_read_roundtrip(self, env, pair):
        runtime_a, runtime_b = pair
        remote = self._remote(env, runtime_b.server)
        qp = runtime_a.network.rdma_qp(remote)
        got = {}

        def client(env):
            yield qp.write("mem", 0, RealBuffer(b"figure-7 bytes")).done
            buffer = yield qp.read("mem", 0, 14).done
            got["data"] = buffer.data

        env.process(client(env))
        env.run(until=2.0)
        assert got["data"] == b"figure-7 bytes"

    def test_host_issue_cost_is_ring_write(self, env, pair):
        runtime_a, runtime_b = pair
        remote = self._remote(env, runtime_b.server)
        qp = runtime_a.network.rdma_qp(remote)
        host_cpu = runtime_a.server.host_cpu
        n_ops = 100

        def client(env):
            for i in range(n_ops):
                yield qp.write("mem", i * PAGE_SIZE,
                               SynthBuffer(PAGE_SIZE)).done

        env.process(client(env))
        env.run(until=5.0)
        costs = runtime_a.server.costs.software
        per_op = host_cpu.cycles_charged.value / n_ops
        native = (costs.rdma_issue_cycles_per_op
                  + costs.rdma_poll_cycles_per_op)
        assert per_op < native / 3      # ~150 vs ~800 cycles
        assert runtime_a.network.ops_offloaded.value == n_ops

    def test_remote_cpu_stays_idle_for_one_sided(self, env, pair):
        runtime_a, runtime_b = pair
        remote = self._remote(env, runtime_b.server)
        qp = runtime_a.network.rdma_qp(remote)

        def client(env):
            for i in range(20):
                yield qp.write("mem", i * 64, SynthBuffer(64)).done

        env.process(client(env))
        env.run(until=2.0)
        assert runtime_b.server.host_cpu.busy_seconds() == 0


class TestDfiFlow:
    def test_batches_arrive_in_order(self, env, pair):
        runtime_a, runtime_b = pair
        remote = RdmaNode(env, runtime_b.server.nic,
                          runtime_b.server.nic.rx_dpu,
                          runtime_b.server.host_cpu,
                          runtime_b.server.costs.software, "flow-remote")
        flow = runtime_a.network.flow(remote, depth=4)
        got = []

        def producer(env):
            for i in range(10):
                yield flow.push(SynthBuffer(4096, label=f"b{i}")).done

        def consumer(env):
            for _ in range(10):
                batch = yield from flow.consume()
                got.append(batch.label)

        env.process(producer(env))
        env.process(consumer(env))
        env.run(until=5.0)
        assert got == [f"b{i}" for i in range(10)]

    def test_window_limits_inflight(self, env, pair):
        runtime_a, runtime_b = pair
        remote = RdmaNode(env, runtime_b.server.nic,
                          runtime_b.server.nic.rx_dpu,
                          runtime_b.server.host_cpu,
                          runtime_b.server.costs.software, "flow-remote2")
        flow = runtime_a.network.flow(remote, depth=2)
        pushed = []

        def producer(env):
            for i in range(6):
                request = flow.push(SynthBuffer(256, label=f"x{i}"))
                yield request.done
                pushed.append(env.now)

        def slow_consumer(env):
            for _ in range(6):
                yield env.timeout(0.01)
                yield from flow.consume()

        env.process(producer(env))
        env.process(slow_consumer(env))
        env.run(until=2.0)
        assert len(pushed) == 6

    def test_invalid_depth_rejected(self, env, pair):
        runtime_a, runtime_b = pair
        remote = RdmaNode(env, runtime_b.server.nic,
                          runtime_b.server.nic.rx_dpu,
                          runtime_b.server.host_cpu,
                          runtime_b.server.costs.software, "flow-remote3")
        with pytest.raises(ValueError):
            runtime_a.network.flow(remote, depth=0)
