"""Multi-tenant resource envelopes (paper Section 5, Challenge 2).

"A server equipped with a DPU can run multiple applications … a
complete solution must also consider hardware accelerators" — whose
per-device concurrency varies and which lack virtualization support.

A :class:`Tenant` carries:

* a cap on concurrent DP-kernel executions on *each* accelerator kind
  (``max_asic_jobs``), enforced with either queuing (default) or
  strict rejection (:class:`~repro.errors.IsolationViolation`),
* the DRR scheduling class used by the sproc scheduler.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import IsolationViolation
from ..sim import Environment, PriorityResource
from ..sim.stats import Counter

__all__ = ["Tenant", "TenantRegistry"]


class Tenant:
    """One application's resource envelope on a shared DPU."""

    def __init__(self, env: Environment, name: str,
                 max_asic_jobs: int = 2,
                 strict: bool = False,
                 rate_limit_ops_per_s: Optional[float] = None,
                 burst_ops: Optional[float] = None):
        if max_asic_jobs < 1:
            raise ValueError("max_asic_jobs must be >= 1")
        if (rate_limit_ops_per_s is not None
                and rate_limit_ops_per_s <= 0):
            raise ValueError("rate limit must be positive")
        if burst_ops is not None and burst_ops < 1:
            raise ValueError("burst must be >= 1")
        self.env = env
        self.name = name
        self.max_asic_jobs = max_asic_jobs
        self.strict = strict
        #: ingress ops/s budget enforced by the admission controller
        #: (None = unmetered); ``burst_ops`` caps the token bucket.
        self.rate_limit_ops_per_s = rate_limit_ops_per_s
        self.burst_ops = burst_ops
        self._asic_slots: Dict[str, PriorityResource] = {}
        self.rejections = Counter(f"tenant.{name}.rejections")

    def _slots(self, asic_kind: str) -> PriorityResource:
        if asic_kind not in self._asic_slots:
            self._asic_slots[asic_kind] = PriorityResource(
                self.env, capacity=self.max_asic_jobs,
                name=f"tenant.{self.name}.{asic_kind}",
            )
        return self._asic_slots[asic_kind]

    def acquire_asic_slot(self, asic_kind: str, priority: int = 0):
        """Claim one of the tenant's ASIC-job slots (generator).

        ``priority`` orders waiters (lower = more urgent).  Strict
        tenants raise :class:`IsolationViolation` instead of queuing
        when the envelope is exhausted.
        """
        slots = self._slots(asic_kind)
        if self.strict and slots.count >= slots.capacity:
            self.rejections.add(1)
            raise IsolationViolation(
                f"tenant {self.name!r} exceeded {self.max_asic_jobs} "
                f"concurrent jobs on {asic_kind}"
            )
        request = slots.request(priority=priority)
        yield request
        return request

    def asic_in_use(self, asic_kind: str) -> int:
        """Slots currently held on ``asic_kind`` (0 if never used).

        The admission controller consults this to refuse a strict
        tenant's over-envelope request at ingress, before any compute
        is scheduled for it.
        """
        slots = self._asic_slots.get(asic_kind)
        return slots.count if slots is not None else 0

    def release_asic_slot(self, asic_kind: str, request) -> None:
        """Return a slot claimed with :meth:`acquire_asic_slot`."""
        self._slots(asic_kind).release(request)

    def __repr__(self) -> str:
        return f"Tenant({self.name!r}, asic_jobs<={self.max_asic_jobs})"


class TenantRegistry:
    """The set of tenants sharing one DPDPU runtime."""

    def __init__(self, env: Environment):
        self.env = env
        self._tenants: Dict[str, Tenant] = {}
        self.register("default")

    def register(self, name: str, **kwargs) -> Tenant:
        """Create and register a new tenant envelope."""
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        tenant = Tenant(self.env, name, **kwargs)
        self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        """Look up a tenant; KeyError if unknown."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"unknown tenant {name!r}")
        return tenant

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __iter__(self):
        return iter(self._tenants.values())
