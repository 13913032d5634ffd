"""Tests for the CPU cluster model."""

import pytest

from repro.hardware import CpuCluster
from repro.sim import Environment
from repro.units import GHZ


@pytest.fixture
def env():
    return Environment()


class TestExecution:
    def test_cycles_translate_to_time(self, env):
        cpu = CpuCluster(env, cores=1, frequency_hz=2 * GHZ)

        def work(env):
            yield from cpu.execute(4 * GHZ)   # 4e9 cycles at 2 GHz = 2 s
            return env.now

        proc = env.process(work(env))
        assert env.run(until=proc) == pytest.approx(2.0)

    def test_parallel_work_uses_multiple_cores(self, env):
        cpu = CpuCluster(env, cores=4, frequency_hz=1 * GHZ)

        def work(env):
            yield from cpu.execute(1 * GHZ)   # 1 s each

        for _ in range(4):
            env.process(work(env))
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_work_queues_when_cores_exhausted(self, env):
        cpu = CpuCluster(env, cores=2, frequency_hz=1 * GHZ)

        def work(env):
            yield from cpu.execute(1 * GHZ)

        for _ in range(4):
            env.process(work(env))
        env.run()
        # 4 jobs of 1 s over 2 cores -> 2 s makespan.
        assert env.now == pytest.approx(2.0)

    def test_cores_consumed_matches_paper_metric(self, env):
        cpu = CpuCluster(env, cores=8, frequency_hz=1 * GHZ)

        def work(env):
            yield from cpu.execute(2 * GHZ)   # one core busy for 2 s

        env.process(work(env))
        env.run(until=4.0)
        # 2 core-seconds over 4 s elapsed -> 0.5 cores consumed.
        assert cpu.busy_seconds() / env.now == pytest.approx(0.5)
        assert cpu.busy_seconds() == pytest.approx(2.0)

    def test_cycles_counter_accumulates(self, env):
        cpu = CpuCluster(env, cores=1, frequency_hz=1 * GHZ)

        def work(env):
            yield from cpu.execute(5000)
            yield from cpu.execute(7000)

        env.process(work(env))
        env.run()
        assert cpu.cycles_charged.value == 12000

    def test_zero_cycles_is_free(self, env):
        cpu = CpuCluster(env, cores=1, frequency_hz=1 * GHZ)

        def work(env):
            yield from cpu.execute(0)
            return env.now

        proc = env.process(work(env))
        assert env.run(until=proc) == 0.0

    def test_negative_cycles_rejected(self, env):
        cpu = CpuCluster(env, cores=1, frequency_hz=1 * GHZ)
        with pytest.raises(ValueError):
            cpu.seconds_for(-1)


class TestDedicatedCores:
    def test_dedicated_core_occupies_slot(self, env):
        cpu = CpuCluster(env, cores=1, frequency_hz=1 * GHZ)
        progress = []

        def reactor(env):
            core = yield from cpu.acquire_core()
            yield from core.run(1 * GHZ)
            core.release()

        def other(env):
            yield from cpu.execute(1 * GHZ)
            progress.append(env.now)

        env.process(reactor(env))
        env.process(other(env))
        env.run()
        # The reactor holds the only core for 1 s first.
        assert progress == [pytest.approx(2.0)]

    def test_polling_core_counts_as_consumed(self, env):
        cpu = CpuCluster(env, cores=4, frequency_hz=1 * GHZ)

        def poller(env):
            core = yield from cpu.acquire_core()
            yield from core.sleep(10.0)      # idle spin still holds core
            core.release()

        env.process(poller(env))
        env.run(until=10.0)
        assert cpu.busy_seconds() / env.now == pytest.approx(1.0)

    def test_release_is_idempotent(self, env):
        cpu = CpuCluster(env, cores=1, frequency_hz=1 * GHZ)

        def reactor(env):
            core = yield from cpu.acquire_core()
            core.release()
            core.release()
            with pytest.raises(RuntimeError):
                yield from core.run(100)

        env.process(reactor(env))
        env.run()
        assert cpu.core_pool.count == 0


class TestValidation:
    def test_rejects_zero_cores(self, env):
        with pytest.raises(ValueError):
            CpuCluster(env, cores=0, frequency_hz=1 * GHZ)

    def test_rejects_bad_frequency(self, env):
        with pytest.raises(ValueError):
            CpuCluster(env, cores=1, frequency_hz=0)

    def test_rejects_unknown_class(self, env):
        with pytest.raises(ValueError):
            CpuCluster(env, cores=1, frequency_hz=1 * GHZ,
                       cpu_class="gpu")
