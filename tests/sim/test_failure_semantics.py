"""Kernel semantics under failure: ``Event.fail`` propagation into
condition events, and the unobserved-failure check."""

import pytest

from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestFailurePropagationIntoConditions:
    def test_all_of_fails_fast_on_constituent_failure(self, env):
        a, b = env.event(), env.event()

        def waiter():
            yield env.all_of([a, b])

        process = env.process(waiter())

        def driver():
            yield env.timeout(1.0)
            a.fail(RuntimeError("constituent died"))

        env.process(driver())
        with pytest.raises(RuntimeError, match="constituent died"):
            env.run(until=process)
        assert not b.triggered          # failure did not wait for b

    def test_any_of_fails_when_first_trigger_is_a_failure(self, env):
        a, b = env.event(), env.event()

        def waiter():
            yield env.any_of([a, b])

        process = env.process(waiter())
        a.fail(ValueError("bad"))
        with pytest.raises(ValueError, match="bad"):
            env.run(until=process)

    def test_condition_over_already_failed_event(self, env):
        a = env.event()
        a.fail(RuntimeError("pre-failed"))
        a._defuse()                     # owner observed it first
        env.run()

        def waiter():
            yield env.any_of([a])

        process = env.process(waiter())
        with pytest.raises(RuntimeError, match="pre-failed"):
            env.run(until=process)


class TestUnobservedFailures:
    def test_unobserved_failure_surfaces_in_step(self, env):
        event = env.event()
        event.fail(RuntimeError("nobody waited"))
        with pytest.raises(RuntimeError, match="nobody waited"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        event = env.event()
        event.fail(RuntimeError("handled elsewhere"))
        event._defuse()
        env.run()                      # no raise

    def test_waiter_defuses_by_observing(self, env):
        event = env.event()

        def waiter():
            try:
                yield event
            except RuntimeError:
                return "caught"

        process = env.process(waiter())
        event.fail(RuntimeError("observed"))
        assert env.run(until=process) == "caught"

    def test_process_failure_propagates_to_joiner(self, env):
        def dying():
            yield env.timeout(1.0)
            raise RuntimeError("process died")

        child = env.process(dying())

        def joiner():
            try:
                yield child
            except RuntimeError as exc:
                return str(exc)

        assert env.run(until=env.process(joiner())) == "process died"
