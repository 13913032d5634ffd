"""Unit tests for retries and the circuit breaker."""

import pytest

from repro.errors import (
    FaultInjectedError,
    RetriesExhaustedError,
    StorageError,
)
from repro.faults import CircuitBreaker, RetryPolicy, retrying
from repro.sim import Environment
from repro.sim.stats import Counter


@pytest.fixture
def env():
    return Environment()


class TestRetryPolicy:
    def test_delays_grow_then_cap(self):
        policy = RetryPolicy(base_delay_s=1e-4, multiplier=2.0,
                             max_delay_s=4e-4, jitter=0.0)
        delays = [policy.delay_s(i) for i in range(5)]
        assert delays == pytest.approx(
            [1e-4, 2e-4, 4e-4, 4e-4, 4e-4])

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(jitter=0.3)
        assert policy.delay_s(2, seed=7) == policy.delay_s(2, seed=7)
        assert policy.delay_s(2, seed=7) != policy.delay_s(2, seed=8)

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay_s=1e-4, jitter=0.2)
        for attempt in range(8):
            for seed in range(20):
                raw = RetryPolicy(base_delay_s=1e-4,
                                  jitter=0.0).delay_s(attempt)
                delay = policy.delay_s(attempt, seed=seed)
                assert raw * 0.8 <= delay <= raw * 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_retryable_filter(self):
        policy = RetryPolicy(retryable=(FaultInjectedError,))
        assert policy.is_retryable(FaultInjectedError("x"))
        assert not policy.is_retryable(StorageError("x"))


class TestRetrying:
    def test_succeeds_after_transient_failures(self, env):
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            if calls["n"] < 3:
                raise FaultInjectedError("transient")
            return "ok"
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=5, jitter=0.0)
        retries = Counter("retries")

        def runner():
            result = yield from retrying(env, policy, attempt,
                                         retries=retries)
            return result

        assert env.run(until=env.process(runner())) == "ok"
        assert calls["n"] == 3
        assert retries.value == 2
        assert env.now > 0.0          # backoff actually slept

    def test_exhaustion_carries_count_and_cause(self, env):
        def attempt():
            raise FaultInjectedError("always", site="ssd.x.read")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=3, jitter=0.0)

        def runner():
            yield from retrying(env, policy, attempt)

        process = env.process(runner())
        with pytest.raises(RetriesExhaustedError) as exc_info:
            env.run(until=process)
        assert exc_info.value.attempts == 3
        assert isinstance(exc_info.value.last_cause,
                          FaultInjectedError)

    def test_budget_exhaustion(self, env):
        def attempt():
            raise FaultInjectedError("always")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=100, base_delay_s=1e-3,
                             jitter=0.0, budget_s=2.5e-3)

        def runner():
            yield from retrying(env, policy, attempt)

        process = env.process(runner())
        with pytest.raises(RetriesExhaustedError):
            env.run(until=process)
        # 1ms + 2ms exceeds the 2.5ms budget on the third backoff.
        assert env.now == pytest.approx(1e-3)

    def test_non_retryable_propagates_untouched(self, env):
        def attempt():
            raise StorageError("fatal")
            yield  # pragma: no cover

        def runner():
            yield from retrying(env, RetryPolicy(), attempt)

        process = env.process(runner())
        with pytest.raises(StorageError):
            env.run(until=process)


class TestCircuitBreaker:
    def _breaker(self, env, **kwargs):
        defaults = dict(window_s=1.0, min_failures=3,
                        rate_threshold=0.5, reset_timeout_s=0.5)
        defaults.update(kwargs)
        return CircuitBreaker(env, **defaults)

    def test_starts_closed_and_allows(self, env):
        breaker = self._breaker(env)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_trips_on_failure_burst(self, env):
        breaker = self._breaker(env)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips.value == 1
        assert not breaker.allow()
        assert breaker.rejections.value == 1

    def test_min_failures_guards_idle_blips(self, env):
        breaker = self._breaker(env, min_failures=5)
        breaker.record_failure()       # 100% failure rate, 1 failure
        assert breaker.state == CircuitBreaker.CLOSED

    def test_rate_threshold_guards_busy_path(self, env):
        breaker = self._breaker(env, rate_threshold=0.5)
        for _ in range(10):
            breaker.record_success()
        for _ in range(3):
            breaker.record_failure()   # 3/13 < 50%
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_on_success(self, env):
        opened = []
        breaker = self._breaker(env, on_open=lambda: opened.append(1))
        for _ in range(3):
            breaker.record_failure()
        assert opened == [1]
        env.run(until=0.6)             # past reset_timeout_s
        assert breaker.allow()         # the single probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()     # second concurrent probe denied
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert opened == [1]           # closing calls nothing back
        assert breaker.probes.value == 1

    def test_half_open_probe_failure_reopens(self, env):
        breaker = self._breaker(env)
        for _ in range(3):
            breaker.record_failure()
        env.run(until=0.6)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips.value == 2

    def test_window_expires_old_failures(self, env):
        breaker = self._breaker(env, window_s=0.1)
        breaker.record_failure()
        breaker.record_failure()
        env.run(until=0.5)             # both outcomes now stale
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failure_rate() == 1.0   # only the fresh one

    def test_validation(self, env):
        with pytest.raises(ValueError):
            CircuitBreaker(env, window_s=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(env, rate_threshold=0.0)
