"""Property-based TCP tests: arbitrary message streams, link flaps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import RealBuffer
from repro.faults import FaultInjector, FaultPlan
from repro.hardware import CpuCluster, Nic, Wire, default_cost_model
from repro.netstack import TcpStack
from repro.sim import Environment
from repro.units import GHZ, Gbps


def _transfer(messages, flap=None):
    """Send ``messages`` (bytes) over a fresh TCP pair, the wire down
    over the ``(start_s, end_s)`` of ``flap``; return what arrived."""
    env = Environment()
    costs = default_cost_model().software
    nic_a = Nic(env, 100 * Gbps, name="a")
    nic_b = Nic(env, 100 * Gbps, name="b")
    wire = Wire(env, nic_a, nic_b)
    if flap is not None:
        wire.injector = FaultInjector(env, FaultPlan().link_flap(*flap))
    cpu_a = CpuCluster(env, 8, 3 * GHZ, name="ca")
    cpu_b = CpuCluster(env, 8, 3 * GHZ, name="cb")
    stack_a = TcpStack(env, nic_a, nic_a.rx_host, cpu_a, costs, "a")
    stack_b = TcpStack(env, nic_b, nic_b.rx_host, cpu_b, costs, "b")
    listener = stack_b.listen(1234)
    received = []

    def client():
        connection = yield from stack_a.connect(1234)
        for message in messages:
            yield from connection.send_message(RealBuffer(message))

    def server():
        connection = yield listener.accept()
        for _ in range(len(messages)):
            buffer = yield connection.recv_message()
            received.append(buffer.data)

    env.process(client())
    server_proc = env.process(server())
    env.run(until=60.0 if flap else 10.0)
    return received


@settings(max_examples=20, deadline=None)
@given(messages=st.lists(st.binary(min_size=0, max_size=30_000),
                         min_size=1, max_size=10))
def test_property_lossless_stream_preserved(messages):
    """Any message sequence arrives complete, intact, and in order."""
    assert _transfer(messages) == messages


@settings(max_examples=8, deadline=None)
@given(messages=st.lists(st.binary(min_size=1, max_size=40_000),
                         min_size=1, max_size=6),
       start_us=st.integers(min_value=0, max_value=300),
       length_us=st.integers(min_value=1, max_value=50))
def test_property_lossy_stream_recovers(messages, start_us, length_us):
    """The retransmission timer recovers any stream from a link flap,
    wherever it falls and however long it lasts."""
    flap = (start_us * 1e-6, (start_us + length_us) * 1e-6)
    assert _transfer(messages, flap) == messages


@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(
    st.integers(min_value=0, max_value=100_000),
    min_size=1, max_size=8,
))
def test_property_synthetic_sizes_preserved(sizes):
    """SynthBuffer messages keep exact sizes through segmentation."""
    from repro.buffers import SynthBuffer

    env = Environment()
    costs = default_cost_model().software
    nic_a = Nic(env, 100 * Gbps, name="a")
    nic_b = Nic(env, 100 * Gbps, name="b")
    Wire(env, nic_a, nic_b)
    cpu = CpuCluster(env, 8, 3 * GHZ)
    stack_a = TcpStack(env, nic_a, nic_a.rx_host, cpu, costs, "a")
    stack_b = TcpStack(env, nic_b, nic_b.rx_host, cpu, costs, "b")
    listener = stack_b.listen(99)
    received = []

    def client():
        connection = yield from stack_a.connect(99)
        for index, size in enumerate(sizes):
            yield from connection.send_message(
                SynthBuffer(size, label=f"m{index}")
            )

    def server():
        connection = yield listener.accept()
        for _ in sizes:
            buffer = yield connection.recv_message()
            received.append((buffer.size, buffer.label))

    env.process(client())
    env.process(server())
    env.run(until=10.0)
    assert received == [(size, f"m{index}")
                        for index, size in enumerate(sizes)]
