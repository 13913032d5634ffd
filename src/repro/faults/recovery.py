"""Recovery machinery: retries, deadlines, and failover.

Three primitives, all operating in *simulated* time:

* :class:`RetryPolicy` — exponential backoff with deterministic
  jitter and a total-delay budget.  Use via :func:`retrying`, a
  generator wrapper that re-runs an attempt generator on retryable
  errors and raises :class:`RetriesExhaustedError` (attempt count +
  last cause) when the policy gives up;
* :class:`CircuitBreaker` — the traffic director's failover switch: a
  sliding-window failure-rate detector with closed → open →
  half-open states.  When it opens, DPU-steered work fails over to
  the host path (``on_open``/``on_close`` callbacks let
  :class:`~repro.core.traffic.TrafficDirector` reprogram the NIC flow
  table);
* per-request deadlines live on
  :class:`~repro.core.requests.AsyncRequest` (``deadline_s=``), which
  fails the request with :class:`DeadlineExceededError`.

Determinism: backoff jitter is derived from ``crc32(seed:attempt)``,
not a global RNG, so a retried operation sleeps the same amount in
every run.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from ..errors import (
    FaultInjectedError,
    ReproError,
    RetriesExhaustedError,
)
from ..obs.trace import NULL_TRACER
from ..sim.stats import Counter, fold_sum

__all__ = ["RetryPolicy", "retrying", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Budget-capped exponential backoff in sim time."""

    max_attempts: int = 4
    base_delay_s: float = 100e-6
    multiplier: float = 2.0
    max_delay_s: float = 5e-3
    jitter: float = 0.2             # +/- fraction of the raw delay
    budget_s: float = float("inf")  # total backoff-sleep budget
    retryable: Tuple[Type[BaseException], ...] = (FaultInjectedError,)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter fraction must be in [0, 1)")

    def delay_s(self, attempt: int, seed: int = 0) -> float:
        """Backoff before retry number ``attempt`` (0-based).

        Deterministic: the jitter offset is a pure function of
        ``(seed, attempt)``, so replays sleep identically.
        """
        raw = min(self.base_delay_s * self.multiplier ** attempt,
                  self.max_delay_s)
        if not self.jitter or raw == 0:
            return raw
        stream = zlib.crc32(f"{seed}:{attempt}".encode())
        unit = (stream % 10_000) / 10_000.0          # [0, 1)
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether the policy retries after ``exc``."""
        return isinstance(exc, self.retryable)


def retrying(env, policy: RetryPolicy, attempt: Callable,
             seed: int = 0, retries: Optional[Counter] = None,
             tracer=NULL_TRACER):
    """Run ``attempt`` under ``policy`` (generator).

    ``attempt`` is a zero-argument callable returning a fresh attempt
    generator; its return value becomes this generator's return value.
    Retryable failures back off (sim-time sleep) and re-run; the
    policy's attempt cap or delay budget exhausting raises
    :class:`RetriesExhaustedError` carrying the attempt count and the
    last underlying cause.  Non-retryable errors propagate untouched.

    With a real ``tracer``, each try is wrapped in a
    ``retry.attempt`` span (closed even when the try fails or the
    policy gives up) and every backoff sleep leaves a
    ``retry.backoff`` instant — so a retry storm is legible in the
    trace instead of looking like one long opaque request.
    """
    attempts = 0
    slept = 0.0
    while True:
        span = tracer.span("retry.attempt", category="fault",
                           attempt=attempts)
        try:
            result = yield from attempt()
        except ReproError as exc:
            span.annotate(error=type(exc).__name__)
            span.finish()
            if not policy.is_retryable(exc):
                raise
            attempts += 1
            if attempts >= policy.max_attempts:
                raise RetriesExhaustedError(
                    f"gave up after {attempts} attempts: {exc}",
                    attempts=attempts, last_cause=exc,
                )
            delay = policy.delay_s(attempts - 1, seed=seed)
            if slept + delay > policy.budget_s:
                raise RetriesExhaustedError(
                    f"retry budget {policy.budget_s}s exhausted "
                    f"after {attempts} attempts: {exc}",
                    attempts=attempts, last_cause=exc,
                )
            slept += delay
            if retries is not None:
                retries.add(1)
            tracer.instant("retry.backoff", category="fault",
                           attempt=attempts, delay_s=delay)
            if delay > 0:
                yield env.timeout(delay)
        else:
            span.finish()
            return result


class CircuitBreaker:
    """Sliding-window failure-rate breaker with half-open probes.

    States:

    * ``closed`` — requests flow; outcomes are recorded into a
      sliding window of the last ``window_s`` seconds;
    * ``open`` — tripped: :meth:`allow` returns False until
      ``reset_timeout_s`` has elapsed (callers take the fallback
      path — for the traffic director, the host);
    * ``half_open`` — one probe request is allowed through; success
      closes the breaker, failure re-opens it.

    The trip condition is ``failures >= min_failures`` AND
    ``failure_rate >= rate_threshold`` within the window, so a single
    blip on an idle path cannot trip it.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, env, window_s: float = 2e-3,
                 min_failures: int = 5,
                 rate_threshold: float = 0.5,
                 reset_timeout_s: float = 1e-3,
                 on_open: Optional[Callable] = None,
                 on_close: Optional[Callable] = None,
                 name: str = "breaker"):
        if window_s <= 0 or reset_timeout_s <= 0:
            raise ValueError("window and reset timeout must be positive")
        if not 0.0 < rate_threshold <= 1.0:
            raise ValueError("rate threshold must be in (0, 1]")
        self.env = env
        self.window_s = window_s
        self.min_failures = min_failures
        self.rate_threshold = rate_threshold
        self.reset_timeout_s = reset_timeout_s
        self.on_open = on_open
        self.on_close = on_close
        self.name = name
        self.state = self.CLOSED
        self._opened_at = 0.0
        self._probe_inflight = False
        self._events: deque = deque()      # (time, ok) outcomes
        self.trips = Counter(f"{name}.trips")
        self.rejections = Counter(f"{name}.rejections")
        self.probes = Counter(f"{name}.probes")

    # -- window bookkeeping ----------------------------------------------

    def _expire(self) -> None:
        horizon = self.env.now - self.window_s
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def failure_rate(self) -> float:
        """Failure fraction inside the current window (0.0 if empty)."""
        self._expire()
        if not self._events:
            return 0.0
        failures = fold_sum(1 for _, ok in self._events if not ok)
        return failures / len(self._events)

    # -- state machine -----------------------------------------------------

    def allow(self) -> bool:
        """Whether the protected (DPU) path may serve this request."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self.env.now - self._opened_at >= self.reset_timeout_s:
                self.state = self.HALF_OPEN
                self._probe_inflight = False
            else:
                self.rejections.add(1)
                return False
        # half-open: admit exactly one probe at a time
        if self._probe_inflight:
            self.rejections.add(1)
            return False
        self._probe_inflight = True
        self.probes.add(1)
        return True

    def record_success(self) -> None:
        """Report a protected-path success."""
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            self._events.clear()
            self._probe_inflight = False
            if self.on_close is not None:
                self.on_close()
            return
        self._events.append((self.env.now, True))
        self._expire()

    def record_failure(self) -> None:
        """Report a protected-path failure; may trip the breaker."""
        if self.state == self.HALF_OPEN:
            self._trip()
            return
        self._events.append((self.env.now, False))
        self._expire()
        if self.state != self.CLOSED:
            return
        failures = fold_sum(1 for _, ok in self._events if not ok)
        if failures >= self.min_failures and \
                self.failure_rate() >= self.rate_threshold:
            self._trip()

    def _trip(self) -> None:
        previously = self.state
        self.state = self.OPEN
        self._opened_at = self.env.now
        self._probe_inflight = False
        self.trips.add(1)
        if previously != self.OPEN and self.on_open is not None:
            self.on_open()

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name}: {self.state}, "
                f"rate={self.failure_rate():.2f}, "
                f"trips={int(self.trips.value)})")
