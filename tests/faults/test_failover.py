"""Traffic-director failover: the breaker reprograms the flow table."""

import pytest

from repro.core.traffic import TrafficDirector
from repro.hardware import Nic
from repro.sim import Environment
from repro.units import Gbps


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def director(env):
    return TrafficDirector(Nic(env, 100 * Gbps, name="n0"))


def _trip(breaker, n=3):
    for _ in range(n):
        breaker.record_failure()


class TestProtect:
    def test_protect_is_idempotent(self, env, director):
        breaker = director.protect(env, min_failures=3)
        assert director.protect(env) is breaker

    def test_trip_installs_match_all_host_rule(self, env, director):
        director.steer_protocol("tcp", "dpu")
        breaker = director.protect(env, min_failures=3,
                                   rate_threshold=0.5)
        table = director.nic.flow_table
        frame = {"proto": "tcp", "port": 443}
        assert table.classify(frame) == "dpu"
        _trip(breaker)
        # The failover rule must win: it sits first in match order.
        assert table.classify(frame) == "host"
        assert len(table) == 2
        assert director.failovers.value == 1

    def test_retrip_from_half_open_keeps_single_rule(self, env,
                                                     director):
        breaker = director.protect(env, min_failures=3,
                                   reset_timeout_s=0.5)
        _trip(breaker)
        env.run(until=0.6)
        assert breaker.allow()
        breaker.record_failure()        # probe fails: re-trip
        assert len(director.nic.flow_table) == 1
