"""Traffic director tests (DDS Q2 instrumentation)."""

import pytest

from repro.core import DpdpuRuntime, TrafficDirector
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestTrafficDirector:
    def test_protocol_rule_steers(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        director = TrafficDirector(server.nic)
        director.steer_protocol("tcp", "dpu")
        assert server.nic.flow_table.classify(
            {"proto": "tcp"}
        ) == "dpu"
        assert server.nic.flow_table.classify(
            {"proto": "mgmt"}
        ) == "host"

    def test_port_rule_beats_protocol_rule(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        director = TrafficDirector(server.nic)
        director.steer_protocol("tcp", "dpu")
        director.steer_tcp_port(22, "host")     # keep SSH on the host
        assert server.nic.flow_table.classify(
            {"proto": "tcp", "port": 22}
        ) == "host"
        assert server.nic.flow_table.classify(
            {"proto": "tcp", "port": 9000}
        ) == "dpu"

    def test_hit_counters_accumulate(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        director = TrafficDirector(server.nic)
        rule = director.steer_protocol("tcp", "dpu")
        for _ in range(5):
            server.nic.flow_table.classify({"proto": "tcp"})
        assert server.nic.flow_table.classify(
            {"proto": "other"}) == "host"
        assert rule.hits == 5

    def test_invalid_target_rejected(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        director = TrafficDirector(server.nic)
        with pytest.raises(ValueError):
            director.steer_protocol("tcp", "gpu")

    def test_ne_installs_named_rules(self, env):
        a = make_server(env, name="a", dpu_profile=BLUEFIELD2)
        b = make_server(env, name="b", dpu_profile=BLUEFIELD2)
        connect(a, b)
        DpdpuRuntime(a)
        table = a.nic.flow_table
        assert table.classify({"proto": "tcp"}) == "dpu"
        assert table.classify({"proto": "rdma"}) == "dpu"
        assert table.remove_rule("ne:tcp")
        assert table.remove_rule("ne:rdma")
