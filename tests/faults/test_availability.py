"""Smoke tests for the availability experiment, at full size."""

from repro.bench import availability, availability_tcp_blackhole


class TestAvailabilityScenarios:
    def test_recovery_beats_unprotected(self):
        scenarios = availability()
        fault_free = scenarios["fault_free"]
        norec = scenarios["faults_norec"]
        recovery = scenarios["faults_recovery"]
        assert fault_free["failed"] == 0.0
        assert norec["failed"] > 0.0            # faults visibly bite
        assert recovery["ok"] >= norec["ok"]
        # The recovery stack actually engaged.
        assert recovery["retries"] + recovery["failovers"] > 0.0

    def test_scenarios_are_deterministic(self):
        first = availability()
        second = availability()
        assert first == second


class TestTcpBlackhole:
    def test_connect_gives_up_at_deadline(self):
        outcome = availability_tcp_blackhole()
        assert outcome["deadline_hit"] == 1.0
        assert outcome["blackhole_elapsed_s"] \
            <= outcome["timeout_s"] * 1.1
        assert outcome["healthy_connect_s"] < 1e-3
