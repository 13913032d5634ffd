"""Per-tenant admission control and backpressure at the NE ingress.

ROADMAP item 5: a flash crowd against the cluster must be refused
*cheaply* at the door, not absorbed into unbounded queues that take
every tenant's p99 down with them.  The escalation ladder is

1. **token-bucket rate limits** — each tenant's configured ops/s
   budget (:class:`~repro.core.tenancy.Tenant` ``rate_limit_ops_per_s``
   / ``burst_ops``) is enforced with a lazily-refilled
   :class:`TokenBucket`; over-budget requests get a precise
   retry-after hint;
2. **bounded ingress queue** — at most ``max_queue`` requests may be
   in flight on the node; beyond that the queue is full and arrivals
   are rejected immediately instead of queueing without bound;
3. **deadline-aware early rejection** — when the expected wait
   (inflight / service rate) already exceeds the request's latency
   budget, admitting it only wastes work: reject now, retry-after
   tells the client when the queue will have drained;
4. **CoDel-style shedding** — when completion latency stays above
   the SLO target for a full interval, the :class:`CodelShedder`
   starts dropping requests at the CoDel cadence (interval/sqrt(n)),
   keeping the queue at the target rather than at its capacity;
5. **strict-tenant isolation at the door** — a strict tenant whose
   ASIC envelope is already saturated is refused here, for the cost
   of a header parse, instead of deep in the compute engine.

Every decision is deterministic: buckets and the shedder are pure
functions of sim time and the arrival sequence — no wall clock, no
randomness — so protected runs replay byte-identically.

Rejections raise :class:`~repro.errors.AdmissionRejected` (or
:class:`~repro.errors.IsolationViolation` for rung 5) before any
DPU/host work is scheduled for the request.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..errors import AdmissionRejected, IsolationViolation
from ..sim import Environment
from ..sim.stats import Counter

__all__ = ["TokenBucket", "CodelShedder", "AdmissionController"]

#: Arm cycles an admission decision costs (a header field lookup and
#: a couple of comparisons — the point of rejecting at the door)
ADMISSION_CYCLES = 120.0


class TokenBucket:
    """A lazily-refilled token bucket over sim time.

    ``rate_per_s`` tokens accrue per simulated second, capped at
    ``burst``.  Refill happens on access — no process, no events —
    so an idle bucket costs nothing and the fill level is an exact
    function of sim time.
    """

    def __init__(self, env: Environment, rate_per_s: float,
                 burst: float):
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.env = env
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = env.now

    def _refill(self) -> None:
        now = self.env.now
        if now > self._last:
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._last) * self.rate_per_s)
            self._last = now

    def try_take(self) -> bool:
        """Consume one token if available; False without debiting."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until one token will have accrued."""
        self._refill()
        return max(1.0 - self._tokens, 0.0) / self.rate_per_s


class CodelShedder:
    """CoDel's controlling law, applied to admission instead of dequeue.

    Completion latencies stream in via :meth:`observe`.  Once latency
    has stayed at or above ``target_s`` for a full ``interval_s``,
    the shedder enters the dropping state and :meth:`should_shed`
    starts returning True at the CoDel cadence — the next drop
    ``interval / sqrt(drop_count)`` after the last, so shedding
    intensifies while the overload persists.  A single observation
    below target resets everything, exactly like CoDel leaving the
    dropping state.
    """

    def __init__(self, env: Environment, target_s: float,
                 interval_s: float):
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("target and interval must be positive")
        self.env = env
        self.target_s = target_s
        self.interval_s = interval_s
        self._first_above: Optional[float] = None
        self._dropping = False
        self._drop_count = 0
        self._next_drop = 0.0

    def observe(self, latency_s: float) -> None:
        """Feed one completed request's service latency."""
        if latency_s < self.target_s:
            self._first_above = None
            self._dropping = False
            self._drop_count = 0
        elif self._first_above is None:
            self._first_above = self.env.now + self.interval_s

    def should_shed(self) -> bool:
        """Consult (and advance) the drop schedule for one arrival."""
        now = self.env.now
        if self._first_above is None or now < self._first_above:
            self._dropping = False
            return False
        if not self._dropping:
            self._dropping = True
            self._drop_count = 1
            self._next_drop = (now + self.interval_s
                               / math.sqrt(self._drop_count))
            return True
        if now >= self._next_drop:
            self._drop_count += 1
            self._next_drop = (now + self.interval_s
                               / math.sqrt(self._drop_count))
            return True
        return False


class _Ticket:
    """An admitted request's hold on the ingress queue."""

    __slots__ = ("_controller", "_released")

    def __init__(self, controller: "AdmissionController"):
        self._controller = controller
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._inflight -= 1


class AdmissionController:
    """The per-node ingress gate: rate limits, bounds, shed policy.

    One controller guards one node's DDS ingress.  ``tenants`` is the
    node's :class:`~repro.core.tenancy.TenantRegistry`; tenants with
    a ``rate_limit_ops_per_s`` budget get a token bucket, the rest
    are unmetered.  ``registry`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`, optional) receives
    the per-tenant ``tenant.<name>.admitted/rejected/shed`` counters
    the telemetry plane derives overload attribution from.
    """

    def __init__(self, env: Environment, tenants,
                 registry=None, max_queue: int = 64,
                 service_rate_ops: float = 100_000.0,
                 slo_target_s: float = 1.0e-3,
                 name: str = "admission"):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if service_rate_ops <= 0:
            raise ValueError("service rate must be positive")
        self.env = env
        self.tenants = tenants
        self.registry = registry
        self.max_queue = max_queue
        self.service_rate_ops = service_rate_ops
        self.slo_target_s = slo_target_s
        self.name = name
        self.shedder = CodelShedder(
            env, target_s=slo_target_s, interval_s=4.0 * slo_target_s)
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight = 0
        self._counters: Dict[str, Counter] = {}

    def _bucket(self, tenant) -> Optional[TokenBucket]:
        if tenant.rate_limit_ops_per_s is None:
            return None
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            burst = (tenant.burst_ops if tenant.burst_ops is not None
                     else max(tenant.rate_limit_ops_per_s * 1e-3, 1.0))
            bucket = TokenBucket(self.env,
                                 tenant.rate_limit_ops_per_s, burst)
            self._buckets[tenant.name] = bucket
        return bucket

    def _count(self, tenant_name: str, verdict: str) -> None:
        key = f"tenant.{tenant_name}.{verdict}"
        counter = self._counters.get(key)
        if counter is None:
            if self.registry is not None:
                counter = self.registry.counter(key)
            else:
                counter = Counter(key)
            self._counters[key] = counter
        counter.add(1)

    def admit(self, tenant_name: Optional[str] = None,
              deadline_s: Optional[float] = None,
              asic_kind: Optional[str] = None) -> _Ticket:
        """Run the escalation ladder for one arrival.

        Returns a ticket whose ``release()`` must be called when the
        request completes (or fails); raises
        :class:`~repro.errors.AdmissionRejected` or — for a strict
        tenant over its ASIC envelope —
        :class:`~repro.errors.IsolationViolation`.  Plain function:
        costs no sim time (the caller charges the decision cycles).
        """
        name = tenant_name if tenant_name is not None else "default"
        tenant = (self.tenants.get(name)
                  if self.tenants is not None and name in self.tenants
                  else None)

        # 1. the tenant's rate budget
        if tenant is not None:
            bucket = self._bucket(tenant)
            if bucket is not None and not bucket.try_take():
                self._count(name, "rejected")
                tenant.rejections.add(1)
                raise AdmissionRejected(
                    f"tenant {name!r} over its "
                    f"{tenant.rate_limit_ops_per_s:g} ops/s budget",
                    reason="rate_limit",
                    retry_after_s=bucket.retry_after(),
                    tenant=name)

        # 5 (checked early because it is terminal — retrying cannot
        # help until the tenant's own jobs finish): strict isolation
        if (tenant is not None and tenant.strict
                and asic_kind is not None
                and tenant.asic_in_use(asic_kind)
                >= tenant.max_asic_jobs):
            self._count(name, "rejected")
            tenant.rejections.add(1)
            raise IsolationViolation(
                f"tenant {name!r} exceeded {tenant.max_asic_jobs} "
                f"concurrent jobs on {asic_kind} (refused at "
                f"admission)")

        # 2. the bounded ingress queue
        if self._inflight >= self.max_queue:
            self._count(name, "rejected")
            raise AdmissionRejected(
                f"ingress queue full ({self.max_queue} in flight)",
                reason="queue_full",
                retry_after_s=self.max_queue / self.service_rate_ops,
                tenant=name)

        # 3. deadline-aware early rejection
        budget = deadline_s if deadline_s is not None \
            else self.slo_target_s
        expected_wait = self._inflight / self.service_rate_ops
        if expected_wait > budget:
            self._count(name, "rejected")
            raise AdmissionRejected(
                f"expected wait {expected_wait:g}s exceeds the "
                f"{budget:g}s budget",
                reason="deadline",
                retry_after_s=expected_wait - budget,
                tenant=name)

        # 4. CoDel shed while p99 breaches the SLO target
        if self.shedder.should_shed():
            self._count(name, "shed")
            raise AdmissionRejected(
                "shedding: latency above SLO target for a full "
                "interval",
                reason="shed",
                retry_after_s=self.shedder.interval_s,
                tenant=name)

        self._inflight += 1
        self._count(name, "admitted")
        return _Ticket(self)

    def observe(self, latency_s: float) -> None:
        """Feed a completion latency to the shed policy."""
        self.shedder.observe(latency_s)
