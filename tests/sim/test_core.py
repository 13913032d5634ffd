"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
)


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_start_time(self):
        assert Environment(initial_time=42.0).now == 42.0

    def test_timeout_advances_clock(self, env):
        env.process(_sleep(env, 2.5))
        env.run()
        assert env.now == 2.5

    def test_run_until_time_stops_early(self, env):
        env.process(_sleep(env, 10.0))
        env.run(until=3.0)
        assert env.now == 3.0

    def test_run_until_past_raises(self, env):
        env.process(_sleep(env, 5.0))
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_run_until_time_with_no_events_lands_on_time(self, env):
        env.run(until=7.0)
        assert env.now == 7.0


class TestProcesses:
    def test_return_value_via_run_until(self, env):
        proc = env.process(_sleep(env, 1.0, value="hello"))
        assert env.run(until=proc) == "hello"

    def test_process_joins_process(self, env):
        def parent(env):
            child = env.process(_sleep(env, 2.0, value=7))
            result = yield child
            return result + 1

        proc = env.process(parent(env))
        assert env.run(until=proc) == 8

    def test_sequential_timeouts_accumulate(self, env):
        def stepper(env, log):
            yield env.timeout(1.0)
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)

        log = []
        env.process(stepper(env, log))
        env.run()
        assert log == [1.0, 3.0]

    def test_same_time_events_fifo_order(self, env):
        log = []

        def worker(env, tag):
            yield env.timeout(1.0)
            log.append(tag)

        for tag in ("a", "b", "c"):
            env.process(worker(env, tag))
        env.run()
        assert log == ["a", "b", "c"]

    def test_exception_propagates_to_joiner(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        def parent(env):
            with pytest.raises(RuntimeError, match="boom"):
                yield env.process(failing(env))
            return "caught"

        proc = env.process(parent(env))
        assert env.run(until=proc) == "caught"

    def test_unhandled_failure_surfaces(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("lost")

        env.process(failing(env))
        with pytest.raises(RuntimeError, match="lost"):
            env.run()

    def test_yield_non_event_is_error(self, env):
        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_joining_finished_process_returns_immediately(self, env):
        child = env.process(_sleep(env, 1.0, value="v"))

        def late_joiner(env):
            yield env.timeout(5.0)
            result = yield child
            return result

        proc = env.process(late_joiner(env))
        assert env.run(until=proc) == "v"

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestInterrupts:
    def test_interrupt_carries_cause(self, env):
        def victim(env):
            try:
                yield env.timeout(10.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)
            return "finished"

        def attacker(env, target):
            yield env.timeout(1.0)
            target.interrupt(cause="why")

        target = env.process(victim(env))
        env.process(attacker(env, target))
        assert env.run(until=target) == ("interrupted", "why", 1.0)

    def test_interrupted_process_can_continue(self, env):
        def victim(env):
            try:
                yield env.timeout(10.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            return env.now

        def attacker(env, target):
            yield env.timeout(2.0)
            target.interrupt()

        target = env.process(victim(env))
        env.process(attacker(env, target))
        assert env.run(until=target) == 3.0

    def test_interrupt_dead_process_raises(self, env):
        target = env.process(_sleep(env, 1.0))
        env.run()

        def attacker(env):
            target.interrupt()
            yield env.timeout(0)

        env.process(attacker(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_self_interrupt_rejected(self, env):
        def selfish(env):
            me.interrupt()
            yield env.timeout(1)

        me = env.process(selfish(env))
        with pytest.raises(SimulationError):
            env.run()


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def parent(env):
            fast = env.process(_sleep(env, 1.0, value="f"))
            slow = env.process(_sleep(env, 5.0, value="s"))
            results = yield env.all_of([fast, slow])
            return (env.now, sorted(results.values()))

        proc = env.process(parent(env))
        assert env.run(until=proc) == (5.0, ["f", "s"])

    def test_any_of_returns_on_fastest(self, env):
        def parent(env):
            fast = env.process(_sleep(env, 1.0, value="f"))
            slow = env.process(_sleep(env, 5.0, value="s"))
            results = yield env.any_of([fast, slow])
            return (env.now, list(results.values()))

        proc = env.process(parent(env))
        assert env.run(until=proc) == (1.0, ["f"])

    def test_empty_all_of_fires_immediately(self, env):
        def parent(env):
            yield env.all_of([])
            return env.now

        proc = env.process(parent(env))
        assert env.run(until=proc) == 0.0

    def test_any_of_as_timeout_guard(self, env):
        def parent(env):
            work = env.process(_sleep(env, 100.0, value="late"))
            deadline = env.timeout(2.0, value="deadline")
            results = yield env.any_of([work, deadline])
            return list(results.values())

        proc = env.process(parent(env))
        assert env.run(until=proc) == ["deadline"]


class TestEvents:
    def test_manual_event_succeed(self, env):
        gate = env.event()

        def opener(env):
            yield env.timeout(3.0)
            gate.succeed("open")

        def waiter(env):
            value = yield gate
            return (env.now, value)

        env.process(opener(env))
        proc = env.process(waiter(env))
        assert env.run(until=proc) == (3.0, "open")

    def test_double_trigger_rejected(self, env):
        gate = env.event()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_value_before_trigger_rejected(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_run_until_never_triggered_event_raises(self, env):
        gate = env.event()
        env.process(_sleep(env, 1.0))
        with pytest.raises(SimulationError):
            env.run(until=gate)


def _sleep(env, delay, value=None):
    yield env.timeout(delay)
    return value
