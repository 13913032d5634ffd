"""TCP state-machine tests: handshake, transfer, flow/congestion control."""

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.errors import DeadlineExceededError
from repro.faults import FaultInjector, FaultPlan
from repro.hardware import CpuCluster, Nic, Wire, default_cost_model
from repro.netstack import TcpStack
from repro.sim import Environment
from repro.units import GHZ, Gbps, PAGE_SIZE


def _make_pair(env, bandwidth=100 * Gbps):
    """Two servers' worth of NIC + CPU + kernel TCP stack."""
    costs = default_cost_model().software
    nic_a = Nic(env, bandwidth, name="a")
    nic_b = Nic(env, bandwidth, name="b")
    wire = Wire(env, nic_a, nic_b)
    cpu_a = CpuCluster(env, 8, 3 * GHZ, name="cpu_a")
    cpu_b = CpuCluster(env, 8, 3 * GHZ, name="cpu_b")
    stack_a = TcpStack(env, nic_a, nic_a.rx_host, cpu_a, costs, "tcp_a")
    stack_b = TcpStack(env, nic_b, nic_b.rx_host, cpu_b, costs, "tcp_b")
    return stack_a, stack_b, cpu_a, cpu_b, wire


def _all_acked(conn):
    """Wait until the peer has acknowledged every byte ``conn`` was
    given: nothing in flight and nothing left in its send queue."""
    while conn._inflight or conn._snd_queue.items:
        yield conn.env.timeout(1e-4)


@pytest.fixture
def env():
    return Environment()


class TestHandshake:
    def test_connect_accept(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7000)
        results = {}

        def client(env):
            conn = yield from stack_a.connect(7000)
            results["client"] = conn

        def server(env):
            conn = yield listener.accept()
            results["server"] = conn

        env.process(client(env))
        env.process(server(env))
        env.run(until=1.0)
        assert results["client"].cid == results["server"].cid

    def test_zero_connect_budget_raises_before_waiting(self, env):
        # The SYN's own CPU charge and send spend a zero budget, so
        # connect gives up before it waits for the SYN-ACK.
        stack_a, stack_b, *_ = _make_pair(env)
        stack_b.listen(7001)
        process = env.process(stack_a.connect(7001, timeout_s=0.0))
        with pytest.raises(DeadlineExceededError):
            env.run(until=process)
        assert env.now < 1e-4     # far short of one SYN timeout

    def test_duplicate_listen_rejected(self, env):
        stack_a, *_ = _make_pair(env)
        stack_a.listen(7000)
        with pytest.raises(Exception):
            stack_a.listen(7000)


class TestTransfer:
    def test_single_message_roundtrip(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7001)
        received = []

        def client(env):
            conn = yield from stack_a.connect(7001)
            yield from conn.send_message(RealBuffer(b"hello, dpu!"))

        def server(env):
            conn = yield listener.accept()
            message = yield conn.recv_message()
            received.append(message)

        env.process(client(env))
        env.process(server(env))
        env.run(until=1.0)
        assert received and received[0].data == b"hello, dpu!"

    def test_large_message_is_segmented_and_reassembled(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7002)
        payload = bytes(i % 251 for i in range(100_000))
        received = []

        def client(env):
            conn = yield from stack_a.connect(7002)
            yield from conn.send_message(RealBuffer(payload))

        def server(env):
            conn = yield listener.accept()
            message = yield conn.recv_message()
            received.append(message)

        env.process(client(env))
        env.process(server(env))
        env.run(until=2.0)
        assert received and received[0].data == payload

    def test_many_messages_preserve_order(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7003)
        got = []

        def client(env):
            conn = yield from stack_a.connect(7003)
            for i in range(50):
                yield from conn.send_message(
                    RealBuffer(f"msg-{i:03d}".encode())
                )

        def server(env):
            conn = yield listener.accept()
            for _ in range(50):
                message = yield conn.recv_message()
                got.append(message.data.decode())

        env.process(client(env))
        env.process(server(env))
        env.run(until=2.0)
        assert got == [f"msg-{i:03d}" for i in range(50)]

    def test_synth_buffers_flow_through(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7004)
        received = []

        def client(env):
            conn = yield from stack_a.connect(7004)
            yield from conn.send_message(SynthBuffer(512 * 1024,
                                                     label="pages"))

        def server(env):
            conn = yield listener.accept()
            message = yield conn.recv_message()
            received.append(message)

        env.process(client(env))
        env.process(server(env))
        env.run(until=2.0)
        assert received and received[0].size == 512 * 1024

    def test_empty_message_roundtrip(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7005)
        received = []

        def client(env):
            conn = yield from stack_a.connect(7005)
            yield from conn.send_message(RealBuffer(b""))

        def server(env):
            conn = yield listener.accept()
            message = yield conn.recv_message()
            received.append(message)

        env.process(client(env))
        env.process(server(env))
        env.run(until=1.0)
        assert received and received[0].size == 0


class TestLossRecovery:
    def test_transfer_completes_despite_loss(self, env):
        # a 5 us link flap in the middle of the 300 kB transfer
        stack_a, stack_b, _, _, wire = _make_pair(env)
        wire.injector = FaultInjector(
            env, FaultPlan().link_flap(60e-6, 65e-6))
        listener = stack_b.listen(7010)
        payload = bytes(i % 256 for i in range(300_000))
        received = []

        def client(env):
            conn = yield from stack_a.connect(7010)
            yield from conn.send_message(RealBuffer(payload))
            received.append(conn)

        def server(env):
            conn = yield listener.accept()
            message = yield conn.recv_message()
            received.append(message.data)

        env.process(client(env))
        env.process(server(env))
        env.run(until=30.0)
        datas = [r for r in received if isinstance(r, bytes)]
        assert datas and datas[0] == payload
        assert wire.frames_dropped.value > 0
        conns = [r for r in received if not isinstance(r, bytes)]
        assert conns[0].retransmits.value > 0

    def test_lossless_link_never_retransmits(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7011)
        conns = []

        def client(env):
            conn = yield from stack_a.connect(7011)
            conns.append(conn)
            for _ in range(20):
                yield from conn.send_message(SynthBuffer(PAGE_SIZE))
            yield from _all_acked(conn)

        def server(env):
            conn = yield listener.accept()
            for _ in range(20):
                yield conn.recv_message()

        env.process(client(env))
        env.process(server(env))
        env.run(until=5.0)
        assert conns[0].retransmits.value == 0


class TestCpuAccounting:
    def test_transfer_consumes_cpu_on_both_sides(self, env):
        stack_a, stack_b, cpu_a, cpu_b, _ = _make_pair(env)
        listener = stack_b.listen(7020)

        def client(env):
            conn = yield from stack_a.connect(7020)
            for _ in range(100):
                yield from conn.send_message(SynthBuffer(PAGE_SIZE))
            yield from _all_acked(conn)

        def server(env):
            conn = yield listener.accept()
            for _ in range(100):
                yield conn.recv_message()

        env.process(client(env))
        env.process(server(env))
        env.run(until=5.0)
        assert cpu_a.busy_seconds() > 0
        assert cpu_b.busy_seconds() > 0
        # Per-page cost should be in the calibrated ballpark:
        # per_msg 4500 + 8192 * 1.1 ~ 13.5 K cycles on the sender side
        # (plus ACK processing).
        tx_cycles_per_page = cpu_a.cycles_charged.value / 100
        assert 10_000 < tx_cycles_per_page < 25_000

    def test_dpu_mode_charges_dpu_rates(self, env):
        costs = pytest.importorskip("repro.hardware").default_cost_model()
        software = costs.software
        nic_a = Nic(env, 100 * Gbps, name="a")
        nic_b = Nic(env, 100 * Gbps, name="b")
        Wire(env, nic_a, nic_b)
        cpu_a = CpuCluster(env, 8, 2.5 * GHZ, name="arm_a",
                           cpu_class="dpu")
        cpu_b = CpuCluster(env, 8, 2.5 * GHZ, name="arm_b",
                           cpu_class="dpu")
        stack_a = TcpStack(env, nic_a, nic_a.rx_host, cpu_a, software,
                           "ne_a", mode="dpu")
        stack_b = TcpStack(env, nic_b, nic_b.rx_host, cpu_b, software,
                           "ne_b", mode="dpu")
        listener = stack_b.listen(7021)

        def client(env):
            conn = yield from stack_a.connect(7021)
            for _ in range(50):
                yield from conn.send_message(SynthBuffer(PAGE_SIZE))
            yield from _all_acked(conn)

        def server(env):
            conn = yield listener.accept()
            for _ in range(50):
                yield conn.recv_message()

        env.process(client(env))
        env.process(server(env))
        env.run(until=5.0)
        # dpu per-page: 3200 + 0.55*8192 ~ 7.7 K cycles, well below
        # the kernel stack's ~13.5 K.
        tx_cycles_per_page = cpu_a.cycles_charged.value / 50
        assert tx_cycles_per_page < 12_000

    def test_bad_mode_rejected(self, env):
        nic = Nic(env, 100 * Gbps)
        cpu = CpuCluster(env, 1, 3 * GHZ)
        with pytest.raises(ValueError):
            TcpStack(env, nic, nic.rx_host, cpu,
                     default_cost_model().software, mode="fpga")


class TestCongestionControl:
    def test_cwnd_grows_during_transfer(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7030)
        conns = []

        def client(env):
            conn = yield from stack_a.connect(7030)
            conns.append(conn)
            yield from conn.send_message(SynthBuffer(4 * 1024 * 1024))
            yield from _all_acked(conn)

        def server(env):
            conn = yield listener.accept()
            yield conn.recv_message()

        env.process(client(env))
        env.process(server(env))
        env.run(until=10.0)
        assert conns[0]._cwnd > 10 * 8960   # grew past initial

    def test_rtt_estimate_converges(self, env):
        stack_a, stack_b, *_ = _make_pair(env)
        listener = stack_b.listen(7031)
        conns = []

        def client(env):
            conn = yield from stack_a.connect(7031)
            conns.append(conn)
            for _ in range(30):
                yield from conn.send_message(SynthBuffer(PAGE_SIZE))
            yield from _all_acked(conn)

        def server(env):
            conn = yield listener.accept()
            for _ in range(30):
                yield conn.recv_message()

        env.process(client(env))
        env.process(server(env))
        env.run(until=5.0)
        srtt = conns[0]._srtt
        assert srtt is not None
        assert 0 < srtt < 1e-3       # microseconds-scale link
