"""Per-request deadlines and bounded waits."""

import pytest

from repro.core.requests import AsyncRequest, wait
from repro.errors import DeadlineExceededError, FaultInjectedError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestSetDeadline:
    def test_deadline_fails_pending_request(self, env):
        request = AsyncRequest(env, "test").set_deadline(1e-3)

        def waiter():
            yield from wait(request)

        process = env.process(waiter())
        with pytest.raises(DeadlineExceededError) as exc_info:
            env.run(until=process)
        assert exc_info.value.deadline_s == 1e-3
        assert env.now == pytest.approx(1e-3)
        assert request.failed
        assert isinstance(request.done.value, DeadlineExceededError)

    def test_completion_beats_deadline(self, env):
        request = AsyncRequest(env, "test", deadline_s=1e-3)

        def completer():
            yield env.timeout(1e-4)
            request.complete("payload")

        env.process(completer())

        def waiter():
            result = yield from wait(request)
            return result

        assert env.run(until=env.process(waiter())) == "payload"
        env.run()                      # drain the watcher harmlessly
        assert not request.failed

    def test_rejects_non_positive_deadline(self, env):
        with pytest.raises(ValueError):
            AsyncRequest(env, "test").set_deadline(0.0)

    def test_rejects_deadline_on_finished_request(self, env):
        request = AsyncRequest(env, "test")
        request.complete(1)
        with pytest.raises(ValueError):
            request.set_deadline(1e-3)


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
