"""AsyncRequest API tests."""

import pytest

from repro.core import AsyncRequest, wait
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestAsyncRequest:
    def test_complete_delivers_result(self, env):
        request = AsyncRequest(env, "op")

        def completer():
            yield env.timeout(1.0)
            request.complete("payload")

        def waiter():
            value = yield from wait(request)
            return (env.now, value)

        env.process(completer())
        proc = env.process(waiter())
        assert env.run(until=proc) == (1.0, "payload")

    def test_latency_frozen_at_completion(self, env):
        request = AsyncRequest(env, "op")

        def completer():
            yield env.timeout(2.0)
            request.complete()

        env.process(completer())
        env.run(until=10.0)
        assert request.latency == pytest.approx(2.0)

    def test_latency_tracks_now_while_pending(self, env):
        request = AsyncRequest(env, "op")
        env.run(until=3.0)
        assert request.latency == pytest.approx(3.0)

    def test_fail_raises_at_waiter(self, env):
        request = AsyncRequest(env, "op")

        def failer():
            yield env.timeout(1.0)
            request.fail(ValueError("nope"))

        def waiter():
            with pytest.raises(ValueError, match="nope"):
                yield from wait(request)
            return "handled"

        env.process(failer())
        proc = env.process(waiter())
        assert env.run(until=proc) == "handled"

    def test_double_complete_is_idempotent(self, env):
        request = AsyncRequest(env, "op")
        request.complete("first")
        request.complete("second")
        assert request.data == "second"     # result updated
        assert request.done.value == "first"  # event fired once

    def test_repr_shows_state(self, env):
        request = AsyncRequest(env, "se:read")
        assert "pending" in repr(request)
        request.complete()
        assert "done" in repr(request)
