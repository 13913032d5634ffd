"""RDMA verbs and ring buffer tests."""

import pytest

from repro.buffers import RealBuffer
from repro.errors import NetworkError
from repro.hardware import CpuCluster, Nic, Wire, default_cost_model
from repro.netstack import RdmaNode, RingBuffer, RingPair, connect_qp
from repro.sim import Environment
from repro.units import GHZ, Gbps, MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


def _make_nodes(env):
    costs = default_cost_model().software
    nic_a = Nic(env, 100 * Gbps, name="a")
    nic_b = Nic(env, 100 * Gbps, name="b")
    Wire(env, nic_a, nic_b)
    cpu_a = CpuCluster(env, 8, 3 * GHZ, name="cpu_a")
    cpu_b = CpuCluster(env, 8, 3 * GHZ, name="cpu_b")
    node_a = RdmaNode(env, nic_a, nic_a.rx_host, cpu_a, costs, "rdma_a")
    node_b = RdmaNode(env, nic_b, nic_b.rx_host, cpu_b, costs, "rdma_b")
    return node_a, node_b, cpu_a, cpu_b


class TestOneSided:
    def test_write_then_read_roundtrip(self, env):
        node_a, node_b, *_ = _make_nodes(env)
        node_b.register_region("pool", 16 * MiB)
        qp_a, _qp_b = connect_qp(node_a, node_b)
        results = []

        def initiator(env):
            done = yield from qp_a.post_write(
                "pool", 4096, RealBuffer(b"remote bytes")
            )
            yield done
            done = yield from qp_a.post_read("pool", 4096, 12)
            completion = yield done
            results.append(completion["buffer"])

        env.process(initiator(env))
        env.run(until=1.0)
        assert results and results[0].data == b"remote bytes"

    def test_one_sided_ops_cost_zero_remote_cpu(self, env):
        node_a, node_b, cpu_a, cpu_b = _make_nodes(env)
        node_b.register_region("pool", 16 * MiB)
        qp_a, _ = connect_qp(node_a, node_b)

        acked = []

        def initiator(env):
            for i in range(50):
                done = yield from qp_a.post_write(
                    "pool", i * PAGE_SIZE, PAGE_SIZE
                )
                acked.append((yield done))

        env.process(initiator(env))
        env.run(until=5.0)
        assert cpu_a.busy_seconds() > 0          # issuing costs cycles
        assert cpu_b.busy_seconds() == 0         # remote CPU untouched
        assert len(acked) == 50                  # the remote NIC served all

    def test_issue_cost_matches_model(self, env):
        node_a, node_b, cpu_a, _ = _make_nodes(env)
        node_b.register_region("pool", 16 * MiB)
        qp_a, _ = connect_qp(node_a, node_b)

        def initiator(env):
            for _ in range(100):
                done = yield from qp_a.post_write("pool", 0, 64)
                yield done

        env.process(initiator(env))
        env.run(until=5.0)
        costs = default_cost_model().software
        assert cpu_a.cycles_charged.value == pytest.approx(
            100 * costs.rdma_issue_cycles_per_op
        )

    def test_out_of_bounds_write_fails(self, env):
        node_a, node_b, *_ = _make_nodes(env)
        node_b.register_region("tiny", 1024)
        qp_a, _ = connect_qp(node_a, node_b)

        def initiator(env):
            yield from qp_a.post_write("tiny", 1000, RealBuffer(b"x" * 64))

        env.process(initiator(env))
        with pytest.raises(NetworkError):
            env.run(until=1.0)

    def test_unconnected_qp_rejected(self, env):
        node_a, _, *_ = _make_nodes(env)
        qp = node_a.create_qp()

        def initiator(env):
            yield from qp.post_write("pool", 0, 64)

        env.process(initiator(env))
        with pytest.raises(NetworkError):
            env.run(until=1.0)

    def test_duplicate_region_rejected(self, env):
        node_a, *_ = _make_nodes(env)
        node_a.register_region("r", 1024)
        with pytest.raises(NetworkError):
            node_a.register_region("r", 1024)


class TestTwoSided:
    def test_send_recv(self, env):
        node_a, node_b, *_ = _make_nodes(env)
        qp_a, qp_b = connect_qp(node_a, node_b)
        got = []

        def sender(env):
            done = yield from qp_a.post_send(RealBuffer(b"two-sided"))
            yield done

        def receiver(env):
            message = yield from qp_b.post_recv()
            got.append(message["buffer"].data)

        env.process(sender(env))
        env.process(receiver(env))
        env.run(until=1.0)
        assert got == [b"two-sided"]

    def test_recv_charges_receiver_cpu(self, env):
        node_a, node_b, _, cpu_b = _make_nodes(env)
        qp_a, qp_b = connect_qp(node_a, node_b)

        def sender(env):
            done = yield from qp_a.post_send(PAGE_SIZE)
            yield done

        def receiver(env):
            yield from qp_b.post_recv()

        env.process(sender(env))
        env.process(receiver(env))
        env.run(until=1.0)
        assert cpu_b.busy_seconds() > 0


class TestRingBuffer:
    def test_push_and_poll(self, env):
        ring = RingBuffer(env, capacity=4)
        assert ring.try_push("a")
        assert ring.try_push("b")
        assert ring.poll_batch() == ["a", "b"]
        assert len(ring) == 0

    def test_full_ring_rejects(self, env):
        ring = RingBuffer(env, capacity=2)
        assert ring.try_push(1)
        assert ring.try_push(2)
        assert not ring.try_push(3)
        assert ring.poll_batch() == [1, 2]

    def test_poll_batch_respects_limit(self, env):
        ring = RingBuffer(env, capacity=16)
        for i in range(10):
            ring.try_push(i)
        assert ring.poll_batch(max_items=4) == [0, 1, 2, 3]
        assert len(ring) == 6

    def test_ring_pair_directions(self, env):
        rings = RingPair(env, capacity=8)
        rings.submit({"op": "read"})
        assert rings.poll_submissions() == [{"op": "read"}]
        assert rings.poll_submissions() == []

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            RingBuffer(env, capacity=0)
        ring = RingBuffer(env)
        with pytest.raises(ValueError):
            ring.poll_batch(max_items=0)
