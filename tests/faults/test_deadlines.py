"""Bounded waits on a request, and failures nobody waits for."""

import pytest

from repro.core.requests import AsyncRequest, wait
from repro.errors import DeadlineExceededError, FaultInjectedError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestWaitTimeout:
    def test_wait_timeout_leaves_request_running(self, env):
        request = AsyncRequest(env, "test")

        def waiter():
            yield from wait(request, timeout_s=1e-3)

        process = env.process(waiter())
        with pytest.raises(DeadlineExceededError):
            env.run(until=process)
        assert not request.done.triggered   # the work keeps running

    def test_wait_timeout_returns_early_result(self, env):
        request = AsyncRequest(env, "test")

        def completer():
            yield env.timeout(1e-4)
            request.complete(7)

        env.process(completer())

        def waiter():
            result = yield from wait(request, timeout_s=1e-3)
            return result

        assert env.run(until=env.process(waiter())) == 7

    def test_failure_propagates_through_timed_wait(self, env):
        request = AsyncRequest(env, "test")

        def failer():
            yield env.timeout(1e-4)
            request.fail(FaultInjectedError("boom"))

        env.process(failer())

        def waiter():
            yield from wait(request, timeout_s=1e-3)

        process = env.process(waiter())
        with pytest.raises(FaultInjectedError):
            env.run(until=process)


class TestUnobservedFailure:
    def test_failed_request_without_waiter_is_defused(self, env):
        request = AsyncRequest(env, "test")
        request.fail(FaultInjectedError("nobody listens"))
        env.run()                      # must not raise

    def test_late_waiter_still_sees_the_failure(self, env):
        request = AsyncRequest(env, "test")
        request.fail(FaultInjectedError("boom"))
        env.run()

        def waiter():
            yield from wait(request)

        process = env.process(waiter())
        with pytest.raises(FaultInjectedError):
            env.run(until=process)
