"""Switch and multi-node fabric tests."""

import pytest

from repro.buffers import RealBuffer
from repro.errors import NetworkError
from repro.hardware import (
    BLUEFIELD2,
    Switch,
    attach_to_switch,
    make_server,
)
from repro.baselines.host_tcp import make_kernel_tcp
from repro.netstack import RdmaNode, connect_qp
from repro.sim import Environment
from repro.units import Gbps, MiB


@pytest.fixture
def env():
    return Environment()


class TestSwitchBasics:
    def test_addressed_delivery(self, env):
        switch = Switch(env)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)

        def sender():
            yield from servers[0].nic.transmit(
                {"dst": "s2", "payload": "hi"}, 100
            )

        env.process(sender())
        env.run(until=0.01)
        assert len(servers[2].nic.rx_host) == 1
        assert len(servers[1].nic.rx_host) == 0
        assert switch.frames_forwarded.value == 1

    def test_unknown_destination_dropped(self, env):
        switch = Switch(env)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)

        def sender():
            yield from servers[0].nic.transmit({"dst": "ghost"}, 100)

        env.process(sender())
        env.run(until=0.01)
        assert switch.frames_dropped.value == 1

    def test_missing_dst_on_multiport_dropped(self, env):
        switch = Switch(env)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)

        def sender():
            yield from servers[0].nic.transmit({"payload": 1}, 100)

        env.process(sender())
        env.run(until=0.01)
        assert switch.frames_dropped.value == 1

    def test_duplicate_address_rejected(self, env):
        switch = Switch(env)
        a = make_server(env, name="dup", dpu_profile=None)
        b = make_server(env, name="dup2", dpu_profile=None)
        switch.attach(a.nic, "x")
        with pytest.raises(NetworkError):
            switch.attach(b.nic, "x")

    def test_output_port_serializes(self, env):
        switch = Switch(env, port_bandwidth_bps=10 * Gbps,
                        forwarding_latency_s=0.0)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)
        # Two senders blast the same destination: deliveries serialize
        # at the output port rate.
        frame_bytes = 125_000                   # 0.1 ms at 10 Gbps

        def sender(src):
            for _ in range(5):
                yield from src.nic.transmit(
                    {"dst": "s2"}, frame_bytes
                )

        env.process(sender(servers[0]))
        env.process(sender(servers[1]))
        env.run(until=1.0)
        assert len(servers[2].nic.rx_host) == 10
        # 10 frames through one 10 Gbps output port ~ 1 ms minimum.
        assert switch.frames_forwarded.value == 10


class TestSwitchMultiNicEdgeCases:
    def test_five_nodes_all_to_all(self, env):
        """Every port pair forwards independently — no crosstalk."""
        switch = Switch(env)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(5)]
        attach_to_switch(switch, *servers)

        def sender(i):
            for j in range(5):
                if j != i:
                    yield from servers[i].nic.transmit(
                        {"dst": f"s{j}", "src": f"s{i}"}, 100
                    )

        for i in range(5):
            env.process(sender(i))
        env.run(until=0.1)
        for i, server in enumerate(servers):
            frames = list(server.nic.rx_host.items)
            assert len(frames) == 4
            assert {f["src"] for f in frames} == \
                {f"s{j}" for j in range(5) if j != i}
        assert switch.frames_forwarded.value == 20
        assert switch.frames_dropped.value == 0

    def test_drops_do_not_perturb_valid_delivery(self, env):
        """Unknown destinations interleaved with good ones: the good
        ones all land, and only the strays are counted dropped."""
        switch = Switch(env)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)

        def sender():
            for k in range(8):
                dst = "ghost" if k % 2 else "s1"
                yield from servers[0].nic.transmit({"dst": dst}, 100)

        env.process(sender())
        env.run(until=0.1)
        assert len(servers[1].nic.rx_host) == 4
        assert switch.frames_dropped.value == 4
        assert switch.frames_forwarded.value == 4

    def test_flow_rules_steer_to_dpu_behind_switch(self, env):
        """Match-action steering is per-NIC and survives the fabric:
        a DPU-equipped server's rule lands frames in rx_dpu while its
        neighbours keep the host default."""
        switch = Switch(env)
        dpu_server = make_server(env, name="d0",
                                 dpu_profile=BLUEFIELD2)
        plain = make_server(env, name="p0", dpu_profile=None)
        sender = make_server(env, name="src", dpu_profile=None)
        attach_to_switch(switch, dpu_server, plain, sender)
        rule = dpu_server.nic.flow_table.add_rule(
            lambda frame: frame.get("port") == 9000, "dpu",
            name="offload:9000")

        def blast():
            for dst in ("d0", "p0"):
                yield from sender.nic.transmit(
                    {"dst": dst, "port": 9000}, 100)
            yield from sender.nic.transmit(
                {"dst": "d0", "port": 22}, 100)

        env.process(blast())
        env.run(until=0.1)
        assert len(dpu_server.nic.rx_dpu) == 1     # matched the rule
        assert len(dpu_server.nic.rx_host) == 1    # port 22 default
        assert len(plain.nic.rx_host) == 1         # no rule installed
        assert rule.hits == 1

    def test_detach_unknown_then_valid_keeps_counters_exact(self, env):
        """Counter bookkeeping stays exact across mixed outcomes on
        many ports (forwarded + dropped == offered)."""
        switch = Switch(env)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(4)]
        attach_to_switch(switch, *servers)

        def offered(i, count):
            for k in range(count):
                dst = f"s{(i + 1) % 4}" if k % 3 else "nowhere"
                yield from servers[i].nic.transmit({"dst": dst}, 64)

        for i in range(4):
            env.process(offered(i, 6))
        env.run(until=0.1)
        total = (switch.frames_forwarded.value
                 + switch.frames_dropped.value)
        assert total == 24
        assert switch.frames_dropped.value == 8    # k in {0, 3} of 6


class TestTcpOverSwitch:
    def test_three_nodes_talk_pairwise(self, env):
        switch = Switch(env)
        servers = [make_server(env, name=f"n{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)
        stacks = [make_kernel_tcp(server, f"tcp{i}")
                  for i, server in enumerate(servers)]
        listeners = [stack.listen(5000) for stack in stacks]
        received = {i: [] for i in range(3)}

        def acceptor(i):
            while True:
                connection = yield listeners[i].accept()
                env.process(receiver(i, connection))

        def receiver(i, connection):
            message = yield connection.recv_message()
            received[i].append(message.data)

        for i in range(3):
            env.process(acceptor(i))

        def client(i, j):
            connection = yield from stacks[i].connect(
                5000, remote=f"n{j}"
            )
            yield from connection.send_message(
                RealBuffer(f"{i}->{j}".encode())
            )

        env.process(client(0, 1))
        env.process(client(1, 2))
        env.process(client(2, 0))
        env.run(until=1.0)
        assert received[1] == [b"0->1"]
        assert received[2] == [b"1->2"]
        assert received[0] == [b"2->0"]


class TestRdmaOverSwitch:
    def test_one_sided_write_routed(self, env):
        switch = Switch(env)
        servers = [make_server(env, name=f"r{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)
        nodes = [
            RdmaNode(env, server.nic, server.nic.rx_host,
                     server.host_cpu, server.costs.software,
                     f"rdma{i}")
            for i, server in enumerate(servers)
        ]
        nodes[2].register_region("mem", 16 * MiB)
        qp, _ = connect_qp(nodes[0], nodes[2])
        results = []

        def client():
            done = yield from qp.post_write(
                "mem", 0, RealBuffer(b"routed")
            )
            yield done
            done = yield from qp.post_read("mem", 0, 6)
            completion = yield done
            results.append(completion["buffer"].data)

        env.process(client())
        env.run(until=1.0)
        assert results == [b"routed"]
        # The middle server saw nothing.
        assert len(servers[1].nic.rx_host) == 0


class TestSwitchQos:
    """Two-class output queues: prioritized service ports jump bulk."""

    def _fabric(self, env):
        # 1 GB/s ports so a 100 kB frame serializes in 100 us.
        switch = Switch(env, port_bandwidth_bps=8e9)
        servers = [make_server(env, name=f"s{i}", dpu_profile=None)
                   for i in range(3)]
        attach_to_switch(switch, *servers)
        return switch, servers

    def _offer(self, switch, sender):
        for seq in range(5):
            switch.carry(sender.nic,
                         {"dst": "s1", "port": 1, "seq": seq},
                         100_000)
        switch.carry(sender.nic,
                     {"dst": "s1", "port": 99, "seq": "prio"},
                     100_000)

    def test_priority_frame_jumps_the_backlog(self, env):
        switch, servers = self._fabric(env)
        switch.prioritize_port(99)
        self._offer(switch, servers[0])
        env.run(until=0.01)
        order = [frame["seq"]
                 for frame in servers[1].nic.rx_host.items]
        # The first bulk frame already held the port; the priority
        # frame is served next, ahead of the queued bulk.
        assert order == [0, "prio", 1, 2, 3, 4]

    def test_unregistered_ports_stay_fifo(self, env):
        switch, servers = self._fabric(env)
        self._offer(switch, servers[0])
        env.run(until=0.01)
        order = [frame["seq"]
                 for frame in servers[1].nic.rx_host.items]
        assert order == [0, 1, 2, 3, 4, "prio"]

    def test_priority_needs_a_port_field(self, env):
        switch, servers = self._fabric(env)
        switch.prioritize_port(99)
        switch.carry(servers[0].nic, {"dst": "s1", "note": "raw"},
                     100)
        env.run(until=0.01)
        assert len(servers[1].nic.rx_host) == 1
