#!/usr/bin/env python3
"""Host time per simulated frame on the TCP frame path — docs/PERFORMANCE.md
§ "Layer 2" quotes this script's output.

A fixed TCP transfer, built from the public hardware and netstack
classes only, so the same file runs against an older checkout's
``src``::

    PYTHONPATH=src python benchmarks/frame_path.py            # min of 7
    PYTHONPATH=src python benchmarks/frame_path.py --runs 15

``wire``: 2 000 requests of 64 B, each answered by one 8 KiB page (the
DDS page-server shape), with 16 outstanding at a time, over a 100 Gbps
point-to-point wire.  ``switch``: three clients doing the same through
one ``Switch`` into a shared server, so the server's output port and
TX serializer contend.  A frame is one a NIC put on the wire (data
segments, ACKs, handshake); ns per frame and per scheduler entry are
host time over ``Environment.run``, the minimum over ``--runs`` runs.
Host times only compare on one machine, in one sitting.
"""

import argparse
import time

from repro.buffers import SynthBuffer
from repro.hardware import (CpuCluster, Nic, Switch, Wire,
                            default_cost_model)
from repro.netstack import TcpStack
from repro.sim import Environment
from repro.units import GHZ, Gbps

REQUESTS = 2_000
OUTSTANDING = 16
PORT = 7300


def _stack(env, nic, name):
    cpu = CpuCluster(env, 8, 3 * GHZ, name=f"{name}.cpu")
    return TcpStack(env, nic, nic.rx_host, cpu,
                    default_cost_model().software, name)


def _serve(env, stack, clients):
    listener = stack.listen(PORT)

    def session(connection):
        while True:
            yield connection.recv_message()
            yield from connection.send_message(SynthBuffer(8192))

    def acceptor():
        for _ in range(clients):
            connection = yield listener.accept()
            env.process(session(connection))

    env.process(acceptor())


def _client(env, stack, remote):
    def run():
        connection = yield from stack.connect(PORT, remote=remote)

        def reader():
            for index in range(OUTSTANDING, REQUESTS + OUTSTANDING):
                yield connection.recv_message()
                if index < REQUESTS:
                    yield from connection.send_message(SynthBuffer(64))

        for _ in range(OUTSTANDING):
            yield from connection.send_message(SynthBuffer(64))
        env.process(reader())

    env.process(run())


def wire():
    env = Environment()
    nics = [Nic(env, 100 * Gbps, name=name) for name in ("client", "server")]
    Wire(env, *nics)
    _serve(env, _stack(env, nics[1], "server"), 1)
    _client(env, _stack(env, nics[0], "client"), None)
    return env, nics


def switch():
    env = Environment()
    fabric = Switch(env)
    nics = []
    for name in ("server", "c0", "c1", "c2"):
        nics.append(Nic(env, 100 * Gbps, name=name))
        fabric.attach(nics[-1], name)
    _serve(env, _stack(env, nics[0], "server"), 3)
    for nic in nics[1:]:
        _client(env, _stack(env, nic, nic.name), "server")
    return env, nics


def measure(build, runs):
    """``(frames, entries, best ns per frame, best ns per entry)``."""
    best = float("inf")
    for _ in range(runs):
        env, nics = build()
        started = time.perf_counter()
        env.run()
        best = min(best, time.perf_counter() - started)
    frames = int(sum(nic.tx_frames.value for nic in nics))
    return frames, env._eid, best * 1e9 / frames, best * 1e9 / env._eid


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=7,
                        help="runs per fabric; the minimum is reported")
    args = parser.parse_args()
    print(f"{REQUESTS} requests x {OUTSTANDING} outstanding per client, "
          f"min of {args.runs} runs")
    print(f"{'fabric':<8}{'frames':>9}{'entries':>10}{'ns/frame':>10}"
          f"{'ns/entry':>10}")
    for name, build in (("wire", wire), ("switch", switch)):
        frames, entries, per_frame, per_entry = measure(build, args.runs)
        print(f"{name:<8}{frames:>9}{entries:>10}{per_frame:>10.0f}"
              f"{per_entry:>10.0f}")
