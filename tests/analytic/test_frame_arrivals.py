"""Closed-form frame arrivals: the NIC, wire and switch against arithmetic.

On an idle wire, frame *i* of a burst of sizes n_j that starts
serializing ``delay`` from now arrives at

    delay + sum(n_j / rate for j <= i) + port_latency + propagation

and the TX serializer is busy for ``sum(n / rate)``.  Every way the
product puts frames on a wire is held to that: ``transmit_batch_after``
(the TCP sender's eventless burst), ``transmit_batch`` (the control
sender's), a loop of ``transmit`` and ``try_transmit`` (one frame at
each serialization boundary).  An idle switch adds ``forwarding_latency
+ n / port_rate`` per frame, and its output port is busy for exactly
that.

Two fabrics: a *dyadic* one whose rates and latencies are powers of two,
so every term and every partial sum is exact and the checks are ``==``;
and the datacenter one (100 Gbps, 1 us, 2 us), whose arrivals are held
to 1e-15 relative.  A busy integral there is a sum of differences of
absolute instants, each exact to an ULP of the clock, so it is held to
one ULP of the final clock per frame.  Pure arithmetic, stdlib only.
"""

import math

import pytest

from repro.hardware import Nic, Switch, Wire
from repro.sim import Environment

SIZES = (66, 9026, 8258, 1500, 64, 9026)

#: (NIC bits/s, port latency, propagation, burst delay, relative error)
FABRICS = {
    "dyadic": (8 * 2.0 ** 30, 2.0 ** -20, 2.0 ** -19, 2.0 ** -22, 0.0),
    "datacenter": (100e9, 1e-6, 2e-6, 3.7e-7, 1e-15),
}


def _close(actual, expected, rel):
    if rel == 0.0:
        return actual == expected
    return abs(actual - expected) <= rel * abs(expected)


def _busy_close(env, actual, expected, rel):
    if rel == 0.0:
        return actual == expected
    return abs(actual - expected) <= len(SIZES) * math.ulp(env.now)


def _wire(fabric):
    bandwidth, port, propagation, _delay, _rel = FABRICS[fabric]
    env = Environment()
    sender = Nic(env, bandwidth, port_latency_s=port, name="tx")
    receiver = Nic(env, bandwidth, port_latency_s=port, name="rx")
    Wire(env, sender, receiver, propagation_delay_s=propagation)
    arrivals = {}
    receiver.rx_host.set_tap(
        lambda frame: True,
        lambda frame: arrivals.setdefault(frame["i"], env.now))
    return env, sender, arrivals


def _expected(fabric):
    bandwidth, port, propagation, delay, _rel = FABRICS[fabric]
    rate = bandwidth / 8.0
    return [math.fsum([delay, *(n / rate for n in SIZES[:i + 1]), port,
                       propagation])
            for i in range(len(SIZES))]


def _frames():
    return [({"i": i}, n) for i, n in enumerate(SIZES)]


def _busy(fabric):
    bandwidth = FABRICS[fabric][0]
    return math.fsum(n / (bandwidth / 8.0) for n in SIZES)


def _check(fabric, env, sender, arrivals):
    env.run()
    rel = FABRICS[fabric][4]
    expected = _expected(fabric)
    assert sorted(arrivals) == list(range(len(SIZES)))
    for i, when in enumerate(expected):
        assert _close(arrivals[i], when, rel), (i, arrivals[i], when)
    assert _busy_close(env, sender._tx.busy_time(), _busy(fabric), rel)
    assert sender.tx_frames.value == len(SIZES)
    assert sender.tx_bytes.value == sum(SIZES)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_transmit_batch_after(fabric):
    env, sender, arrivals = _wire(fabric)
    delay, rel = FABRICS[fabric][3], FABRICS[fabric][4]
    wait = sender.transmit_batch_after(delay, _frames())
    assert _close(wait, delay + _busy(fabric), rel)
    _check(fabric, env, sender, arrivals)


def _after_delay(fabric, env, body):
    def process():
        yield env.timeout(FABRICS[fabric][3])
        yield from body()
    env.process(process())


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_transmit_batch(fabric):
    env, sender, arrivals = _wire(fabric)
    _after_delay(fabric, env, lambda: sender.transmit_batch(_frames()))
    _check(fabric, env, sender, arrivals)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_a_loop_of_transmit(fabric):
    env, sender, arrivals = _wire(fabric)

    def loop():
        for frame, nbytes in _frames():
            yield from sender.transmit(frame, nbytes)

    _after_delay(fabric, env, loop)
    _check(fabric, env, sender, arrivals)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_try_transmit_at_each_boundary(fabric):
    env, sender, arrivals = _wire(fabric)
    rate = FABRICS[fabric][0] / 8.0

    def one_at_a_time():
        for frame, nbytes in _frames():
            assert sender.try_transmit(frame, nbytes)
            # the serializer is busy until the boundary: a second frame
            # now is refused, and nothing is counted for it
            assert not sender.try_transmit({"i": -1}, 64)
            yield env.timeout(nbytes / rate)

    _after_delay(fabric, env, one_at_a_time)
    _check(fabric, env, sender, arrivals)


def _switched(fabric):
    """Three servers on a switch with twice the NIC rate per port."""
    bandwidth, port, _propagation, _delay, _rel = FABRICS[fabric]
    env = Environment()
    forwarding = port / 2
    switch = Switch(env, port_bandwidth_bps=2 * bandwidth,
                    forwarding_latency_s=forwarding)
    nics = {}
    for address in ("a", "b", "c"):
        nics[address] = Nic(env, bandwidth, port_latency_s=port,
                            name=address)
        switch.attach(nics[address], address)
    arrivals = {}
    nics["c"].rx_host.set_tap(
        lambda frame: True,
        lambda frame: arrivals.setdefault(frame["i"], env.now))
    return env, switch, nics, arrivals, forwarding


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_an_idle_switch_adds_forwarding_and_port_serialization(fabric):
    bandwidth, port, _propagation, _delay, rel = FABRICS[fabric]
    env, switch, nics, arrivals, forwarding = _switched(fabric)
    rate, port_rate = bandwidth / 8.0, 2 * bandwidth / 8.0
    gap = 2.0 ** -14                  # every frame finds the port idle
    # a switch cannot schedule deliveries ahead: the eventless burst
    # declines, and the sender takes the evented path
    assert nics["a"].transmit_batch_after(0.0, _frames()) is None

    def sender():
        for i, (frame, nbytes) in enumerate(_frames()):
            yield env.timeout(i * gap - env.now)
            yield from nics["a"].transmit(dict(frame, dst="c"), nbytes)

    env.process(sender())
    env.run()
    for i, n in enumerate(SIZES):
        expected = math.fsum([i * gap, n / rate, port, forwarding,
                              n / port_rate])
        assert _close(arrivals[i], expected, rel), (i, arrivals[i],
                                                    expected)
    port_busy = math.fsum(forwarding + n / port_rate for n in SIZES)
    assert _busy_close(env, switch._output_queues["c"].busy_time(),
                       port_busy, rel)
    assert switch.frames_forwarded.value == len(SIZES)
