"""The frame path's schedule, pinned to golden values.

A frame's trip through the simulator — TCP burst build, NIC burst
scheduling, wire or switch, NIC delivery, TCP receive and reassembly,
ACK, the sender's ACK processing — is rewritten for host speed from time
to time, and every rewrite must leave the simulated schedule exactly as
it was.  Only a full hostbench run would otherwise notice a reordered
entry in this layer.  Five small cases run here:

* ``wire`` — a point-to-point wire, mixed-size requests (some span
  several segments, one is empty) answered by mixed-size responses,
  half of them queued through ``try_send_message``;
* ``bulk`` — a 10 Gbps transfer whose sender runs out of send-buffer
  credit and whose slow reader closes the advertised window;
* ``flap`` — a wire whose link goes down for 40 us mid-run: segments
  arrive past the hole and wait in the receiver's out-of-order buffer
  until the retransmission timeout resends the missing ones;
* ``switch`` — three senders into one receiver through a ``Switch``,
  contending for its output port;
* ``traced`` — a stack with a real tracer, whose sender takes
  ``_send_message_traced``.

Each case records every message's send instant (``send_message`` or
``try_send_message`` accepted it) and delivery instant
(``recv_message`` handed it over), every frame's arrival at a NIC (its
instant, kind and sequence number, kept as a count and a sha256 of the
list), every connection's retransmits, the
scheduler's entry count (``env._eid``), the timeout pool's hits and
misses, and each CPU, NIC-TX and switch-port ``Resource``'s grants and
busy integral (its ``repr``, so one ULP fails).  ``frame_schedule.json``
holds what the tree before the per-frame rewrite produced.  Regenerate
it only for a change that means to move the schedule::

    PYTHONPATH=src python tests/netstack/test_frame_schedule.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.faults import FaultInjector, FaultPlan
from repro.hardware import CpuCluster, Nic, Switch, Wire, default_cost_model
from repro.netstack import TcpStack
from repro.obs.trace import Tracer
from repro.sim import Environment
from repro.units import GHZ, Gbps

GOLDEN = Path(__file__).with_name("frame_schedule.json")
COSTS = default_cost_model().software
PORT = 7100

#: request sizes: one byte, sub-segment, one page, exactly one MSS,
#: one byte past it, several segments, and an empty message
SIZES = (1, 64, 8192, 8960, 8961, 20_000, 100_000, 0, 300, 4096, 47_000,
         1500)


def _response_size(request_size):
    return (request_size * 7 + 96) % 30_000


def _payload(size, tag):
    if size <= 4096:
        return RealBuffer(bytes((tag + i) % 251 for i in range(size)))
    return SynthBuffer(size, label=f"m{tag}")


class _Case:
    """One fabric: stacks, the resources to watch and a message log."""

    def __init__(self):
        self.env = Environment()
        self.resources = []
        self.connections = []
        #: tag -> [send instant, delivery instant]
        self.messages = {}
        #: every frame's arrival at a NIC, in arrival order
        self.arrivals = []

    def stack(self, nic, name, tracer=None):
        cpu = CpuCluster(self.env, 4, 3 * GHZ, name=f"{name}.cpu")
        self.resources += [cpu.core_pool, nic._tx]

        def arrived(frame):
            # a steering rule that never matches: the flow table asks
            # it about every frame at the instant the frame arrives
            self.arrivals.append((nic.name, self.env.now, frame["kind"],
                                  frame.get("seq")))
            return False

        nic.flow_table.add_rule(arrived, "dpu", name="arrivals")
        return TcpStack(self.env, nic, nic.rx_host, cpu, COSTS, name,
                        tracer=tracer)

    def wire(self, bandwidth=100 * Gbps, propagation_s=2e-6, flap=None,
             tracer=None):
        env = self.env
        nic_a = Nic(env, bandwidth, name="a")
        nic_b = Nic(env, bandwidth, name="b")
        wire = Wire(env, nic_a, nic_b)
        wire.propagation_delay_s = propagation_s
        if flap is not None:
            wire.injector = FaultInjector(env, FaultPlan().link_flap(*flap))
        return (self.stack(nic_a, "tcp_a", tracer=tracer),
                self.stack(nic_b, "tcp_b"))

    def send(self, connection, tag, buffer, eager):
        """Generator: queue one message and log when it was accepted."""
        if not (eager and connection.try_send_message(buffer)):
            yield from connection.send_message(buffer)
        self.messages[tag] = [self.env.now, None]

    def received(self, tag):
        self.messages[tag][1] = self.env.now

    def observe(self):
        env = self.env
        return {
            "messages": {tag: times for tag, times
                         in sorted(self.messages.items())},
            "frames": [len(self.arrivals), hashlib.sha256(
                repr(self.arrivals).encode()).hexdigest()],
            "retransmits": [c.retransmits.value for c in self.connections],
            "eid": env._eid,
            "pool": [env.pool_hits, env.pool_misses],
            "resources": {res.name: [res.total_served,
                                     repr(res.busy_time())]
                          for res in self.resources},
        }


def _request_response(case, client_stack, server_stack, sizes, gap_s):
    """A client sends ``sizes`` with ``gap_s`` between them; the server
    answers each in order; both directions are logged."""
    env = case.env
    listener = server_stack.listen(PORT)

    def client():
        connection = yield from client_stack.connect(PORT)
        case.connections.append(connection)
        env.process(client_reader(connection))
        for index, size in enumerate(sizes):
            yield from case.send(connection, f"req{index:02d}",
                                 _payload(size, index), index % 2 == 0)
            if gap_s[index % len(gap_s)]:
                yield env.timeout(gap_s[index % len(gap_s)])

    def client_reader(connection):
        for index in range(len(sizes)):
            yield connection.recv_message()
            case.received(f"rsp{index:02d}")

    def server():
        connection = yield listener.accept()
        case.connections.append(connection)
        for index, size in enumerate(sizes):
            yield connection.recv_message()
            case.received(f"req{index:02d}")
            yield from case.send(
                connection, f"rsp{index:02d}",
                _payload(_response_size(size), index), index % 3 == 0)

    env.process(client())
    env.process(server())


def run_wire():
    case = _Case()
    _request_response(case, *case.wire(), SIZES * 2, (0.0, 3e-6, 0.0, 40e-6))
    case.env.run(until=0.05)
    return case.observe()


def _bulk_sizes():
    """32 x 64 KiB open the congestion window past the 1 MiB send
    buffer; then 4 KiB messages, a 20 000-byte one every 16, fill the
    pipe until a large one finds too little send-buffer credit; then
    16 x 256 KiB to a reader that has stopped keeping up."""
    small = [20_000 if i % 16 == 15 else 4096 for i in range(320)]
    return [64 * 1024] * 32 + small + [256 * 1024] * 16


def run_bulk():
    """Credit- and window-limited: :func:`_bulk_sizes` at 10 Gbps over a
    1 ms wire, whose bandwidth-delay product is past the 1 MiB send
    buffer; the reader pauses 1 ms after each of the last 16 messages,
    which closes the advertised window."""
    case = _Case()
    sender, receiver = case.wire(bandwidth=10 * Gbps, propagation_s=1e-3)
    env = case.env
    listener = receiver.listen(PORT)
    sizes = _bulk_sizes()

    def client():
        connection = yield from sender.connect(PORT)
        case.connections.append(connection)
        for index, size in enumerate(sizes):
            yield from case.send(connection, f"bulk{index:03d}",
                                 SynthBuffer(size), index % 2 == 0)

    def server():
        connection = yield listener.accept()
        case.connections.append(connection)
        for index in range(len(sizes)):
            yield connection.recv_message()
            case.received(f"bulk{index:03d}")
            if index >= len(sizes) - 16:
                yield env.timeout(1e-3)

    env.process(client())
    env.process(server())
    env.run(until=0.5)
    return case.observe()


#: the link is down over [372, 412) us, near the end of the requests;
#: a frame is lost when it finishes serializing inside the window, and
#: the retransmission timer, which resends one segment per backed-off
#: timeout, delivers the last message at ~2.07 s
FLAP_S = (372e-6, 412e-6)


def run_flap():
    case = _Case()
    _request_response(case, *case.wire(flap=FLAP_S), SIZES * 3,
                      (0.0, 20e-6))
    case.env.run(until=3.0)
    return case.observe()


def run_switch():
    """Three senders, one receiver, one contended output port."""
    case = _Case()
    env = case.env
    switch = Switch(env)
    nics = {}
    for address in ("r", "s0", "s1", "s2"):
        nics[address] = Nic(env, 100 * Gbps, name=address)
        switch.attach(nics[address], address)
    receiver = case.stack(nics["r"], "tcp_r")
    senders = [case.stack(nics[f"s{i}"], f"tcp_s{i}") for i in range(3)]
    case.resources += [switch._output_queues[address]
                       for address in sorted(nics)]
    listener = receiver.listen(PORT)
    count = 8

    def client(i):
        connection = yield from senders[i].connect(PORT, remote="r")
        case.connections.append(connection)
        for index in range(count):
            size = (64 * 1024, 9000, 300)[(index + i) % 3]
            yield from case.send(connection, f"s{i}.{index:02d}",
                                 _payload(size, index), index % 2 == 1)

    def reader(connection):
        sender = connection.remote
        for index in range(count):
            yield connection.recv_message()
            case.received(f"{sender}.{index:02d}")

    def acceptor():
        for _ in range(3):
            connection = yield listener.accept()
            case.connections.append(connection)
            env.process(reader(connection))

    env.process(acceptor())
    for i in range(3):
        env.process(client(i))
    env.run(until=0.05)
    return case.observe()


def run_traced():
    case = _Case()
    tracer = Tracer(case.env)
    _request_response(case, *case.wire(tracer=tracer), SIZES,
                      (0.0, 10e-6))
    case.env.run(until=0.05)
    observed = case.observe()
    observed["spans"] = len(tracer.spans)
    return observed


CASES = {"wire": run_wire, "bulk": run_bulk, "flap": run_flap,
         "switch": run_switch, "traced": run_traced}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_frame_schedule_is_unmoved(name, golden):
    observed = json.loads(json.dumps(CASES[name]()))
    expected = golden[name]
    assert observed["messages"] == expected["messages"]
    assert all(sent is not None and delivered is not None
               for sent, delivered in observed["messages"].values())
    assert observed == expected


def test_the_flap_case_takes_the_timer_and_the_reassembly_buffer(
        golden, monkeypatch):
    from repro.netstack.tcp import TcpConnection

    calls = {"timer": 0, "past_the_hole": 0}
    base = TcpConnection._retransmit_base
    on_data = TcpConnection._on_data

    def counted_base(self):
        calls["timer"] += 1
        base(self)

    def counted_on_data(self, segment):
        calls["past_the_hole"] += segment["seq"] > self._rcv_next
        on_data(self, segment)

    monkeypatch.setattr(TcpConnection, "_retransmit_base", counted_base)
    monkeypatch.setattr(TcpConnection, "_on_data", counted_on_data)
    observed = json.loads(json.dumps(run_flap()))
    assert observed == golden["flap"]
    assert calls["timer"] > 0
    assert calls["past_the_hole"] > 0


def test_the_traced_case_takes_the_traced_sender(golden):
    assert golden["traced"]["spans"] > 0


def test_the_bulk_case_runs_out_of_credit_and_window(golden, monkeypatch):
    from repro.netstack.tcp import TcpConnection
    from repro.sim.resources import Container

    calls = {"credit": 0, "window": 0}
    get = Container.get
    await_window = TcpConnection._await_window

    def counted_get(self, amount):
        event = get(self, amount)
        calls["credit"] += event.callbacks is not None
        return event

    def counted_await(self, chunk):
        calls["window"] += (self._snd_next - self._snd_base + chunk
                            > min(self._cwnd, self._peer_rwnd))
        return await_window(self, chunk)

    monkeypatch.setattr(Container, "get", counted_get)
    monkeypatch.setattr(TcpConnection, "_await_window", counted_await)
    observed = json.loads(json.dumps(run_bulk()))
    assert observed == golden["bulk"]
    assert calls["credit"] > 0
    assert calls["window"] > 0


def _render(observed):
    """JSON with one line per message and per resource."""
    cases = []
    for name, case in observed.items():
        fields = []
        for key, value in case.items():
            if isinstance(value, dict):
                body = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}"
                                  for k, v in value.items())
                fields.append(f"  {json.dumps(key)}: {{\n{body}\n  }}")
            else:
                fields.append(f"  {json.dumps(key)}: {json.dumps(value)}")
        cases.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields)
                     + "\n }")
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    observed = {name: run() for name, run in sorted(CASES.items())}
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(_render(observed))
    print(json.dumps({name: {key: value for key, value in case.items()
                             if key != "messages"}
                      for name, case in observed.items()}, indent=1))
