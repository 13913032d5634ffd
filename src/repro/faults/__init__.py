"""Deterministic fault injection and recovery for the three engines.

The paper's traffic director (Section 8) exists so requests can be
steered between the DPU and host paths; steering only matters when a
path can *fail*.  This package supplies the failure side and the
recovery side:

* :mod:`repro.faults.plan` — :class:`FaultWindow` / :class:`FaultPlan`:
  a seeded, declarative schedule of faults in simulated time (SSD
  errors and latency spikes, NIC loss and link flaps, DPU Arm
  crash/slowdown, accelerator unavailability, ring stalls);
* :mod:`repro.faults.injector` — :class:`FaultInjector`: the runtime
  that hardware/netstack/fs hooks consult.  Per-site seeded RNG
  streams keep every fault decision reproducible and independent
  across sites;
* :mod:`repro.faults.recovery` — :class:`RetryPolicy` (sim-time
  exponential backoff with deterministic jitter, budget-capped),
  :class:`CircuitBreaker` (DPU→host failover), and the
  :func:`retrying` generator wrapper.

Determinism guarantee: with a fixed plan seed, the same simulation
makes exactly the same fault decisions — see ``docs/ROBUSTNESS.md``.
"""

from .injector import FaultInjector
from .plan import FaultPlan, FaultWindow, default_fault_plan
from .recovery import CircuitBreaker, RetryPolicy, retrying

__all__ = [
    "FaultWindow",
    "FaultPlan",
    "default_fault_plan",
    "FaultInjector",
    "RetryPolicy",
    "retrying",
    "CircuitBreaker",
]
