"""Unit tests for the fault injector: hooks, determinism, install."""

import pytest

from repro.errors import FaultInjectedError
from repro.faults import FaultInjector, FaultPlan
from repro.hardware import BLUEFIELD2, make_server
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def _drain(env, generator):
    """Run a perturb generator to completion inside a process."""
    outcome = {}

    def runner():
        try:
            yield from generator
        except FaultInjectedError as exc:
            outcome["error"] = exc
        return None

    env.run(until=env.process(runner()))
    return outcome


class TestPerturb:
    def test_error_window_raises_typed_error(self, env):
        plan = FaultPlan(seed=1).ssd_errors(1.0)
        injector = FaultInjector(env, plan)
        outcome = _drain(env, injector.perturb("ssd.db.read"))
        error = outcome["error"]
        assert error.site == "ssd.db.read"
        assert error.kind == "error"
        assert injector.errors.value == 1

    def test_delay_window_advances_clock(self, env):
        plan = FaultPlan(seed=1).ssd_latency_spike(5e-4)
        injector = FaultInjector(env, plan)
        outcome = _drain(env, injector.perturb("ssd.db.read"))
        assert "error" not in outcome
        assert env.now == pytest.approx(5e-4)
        assert injector.delays.value == 1

    def test_outside_window_is_clean(self, env):
        plan = FaultPlan(seed=1).ssd_errors(1.0, start_s=5.0, end_s=6.0)
        injector = FaultInjector(env, plan)
        outcome = _drain(env, injector.perturb("ssd.db.read"))
        assert "error" not in outcome
        assert injector.injected.value == 0


class TestStateChecks:
    def test_is_down_inside_window_only(self, env):
        plan = FaultPlan().cpu_crash(0.0, 1.0, site="cpu.dpu")
        injector = FaultInjector(env, plan)
        assert injector.is_down("cpu.dpu")
        assert not injector.is_down("cpu.host")
        assert injector.downs.value == 1

    def test_link_flap_takes_the_wire_down(self, env):
        plan = FaultPlan().link_flap(0.0, 1.0)
        injector = FaultInjector(env, plan)
        assert injector.is_down("wire")
        assert injector.downs.value == 1

    def test_slowdown_multiplies_active_windows(self, env):
        plan = FaultPlan().cpu_slowdown(2.0).cpu_slowdown(3.0)
        injector = FaultInjector(env, plan)
        assert injector.slowdown("cpu.node0.dpu.cpu") == pytest.approx(6.0)
        assert injector.slowdown("cpu.node0.host") == 1.0


class TestDeterminism:
    def _decisions(self, seed, n=200):
        """Which of ``n`` operations a 30 % error window fails."""
        env = Environment()
        plan = FaultPlan(seed=seed).ssd_errors(0.3)
        injector = FaultInjector(env, plan)
        return ["error" in _drain(env, injector.perturb("ssd.db.read"))
                for _ in range(n)]

    def test_same_seed_same_decisions(self):
        assert self._decisions(42) == self._decisions(42)

    def test_different_seed_different_decisions(self):
        assert self._decisions(1) != self._decisions(2)

    def test_sites_have_independent_streams(self, env):
        plan = FaultPlan(seed=9).ssd_errors(0.5)
        injector = FaultInjector(env, plan)
        # Rolling one site does not perturb another site's stream.
        a_first = [injector._rng("ssd.a.read").random()
                   for _ in range(5)]
        env2 = Environment()
        other = FaultInjector(env2, FaultPlan(seed=9).ssd_errors(0.5))
        other._rng("ssd.b.read").random()       # interleaved roll
        a_second = [other._rng("ssd.a.read").random()
                    for _ in range(5)]
        assert a_first == a_second


class TestInstall:
    def test_install_reaches_server_hardware(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        injector = FaultInjector(env, FaultPlan())
        injector.install(server)
        assert server.ssd(0).injector is injector
        assert server.host_cpu.injector is injector
        assert server.dpu.cpu.injector is injector
        for accelerator in server.dpu.accelerators.values():
            assert accelerator.injector is injector

    def test_counts_are_per_site(self, env):
        plan = FaultPlan().link_flap(0.0, 1.0)
        injector = FaultInjector(env, plan)
        injector.is_down("wire")
        injector.is_down("wire")
        assert injector.by_site == {"wire": 2}
