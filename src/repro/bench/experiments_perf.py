"""Kernel microbenchmarks: how fast is the event loop itself?

Every other experiment measures *simulated* hardware; this one
measures the simulator.  Three microbenchmarks exercise the kernel's
fast paths directly, in isolation from any hardware model:

* **event throughput** — a process yielding back-to-back timeouts,
  the pattern every per-packet/per-page delay reduces to.  Exercises
  the inlined ``run()`` loop and the :class:`Timeout` freelist.
* **timeout churn** — arm-then-cancel at scale (TCP retransmit
  timers, watchdogs).  Exercises lazy-cancel tombstoning and dead
  entry recycling: cancelled timers must cost O(1) and must not
  perturb ``peek()``/``run(until=...)``.
* **interrupt storm** — repeated ``Process.interrupt`` against a
  sleeping process (preemption, fault injection).  Exercises the
  lazy-cancel path that replaced the O(n) ``callbacks.remove``.

The *rates* are real wall-clock measurements and therefore vary by
machine — the artifact records them as a perf trajectory, the
regression comparator treats the whole ``perf`` experiment as
warn-only, and the byte-identity check strips it (see
``repro.obs.artifact.strip_volatile``).  The *counts* are simulated
and deterministic; ``tests/sim/test_perf_smoke.py`` asserts them
exactly and puts generous floors under the rates.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from ..obs.metrics import MetricsRegistry
from ..sim import Environment, EventPopulation, Interrupt

__all__ = [
    "event_throughput",
    "timeout_churn",
    "interrupt_storm",
    "kernel_counters",
    "batch_identity",
    "perf_parts",
]


def event_throughput(n_events: int = 200_000) -> Dict[str, float]:
    """Drain ``n_events`` back-to-back timeouts through one process."""
    env = Environment()

    def spin():
        for _ in range(n_events):
            yield env.timeout(1e-6)

    env.process(spin())
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    return {
        "events": float(n_events),
        "sim_end_s": env.now,
        "elapsed_s": elapsed,
        "events_per_s": n_events / elapsed if elapsed > 0 else 0.0,
    }


def timeout_churn(n_timeouts: int = 200_000) -> Dict[str, float]:
    """Arm and immediately cancel timers at scale, then drain.

    Ends with a single live sentinel timer: if the tombstoned entries
    leaked into the clock, the final ``env.now`` would drift off the
    sentinel's deadline.
    """
    env = Environment()

    def churn():
        for _ in range(n_timeouts):
            timer = env.timeout(10.0)  # would fire far in the future
            timer.cancel()
            if env.peek() > 1.0:
                # Nothing live pending: the dead timers are invisible.
                yield env.timeout(1e-6)

    env.process(churn())
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    return {
        "timeouts": float(n_timeouts),
        "sim_end_s": env.now,
        "elapsed_s": elapsed,
        "cancels_per_s": n_timeouts / elapsed if elapsed > 0 else 0.0,
    }


def interrupt_storm(n_interrupts: int = 50_000) -> Dict[str, float]:
    """Interrupt a sleeping process ``n_interrupts`` times."""
    env = Environment()
    caught = [0]

    def sleeper():
        while True:
            try:
                yield env.timeout(1000.0)  # interrupted long before
                return
            except Interrupt:
                caught[0] += 1
                if caught[0] >= n_interrupts:
                    return

    def storm(target):
        for _ in range(n_interrupts):
            yield env.timeout(1e-6)
            target.interrupt(cause="storm")

    target = env.process(sleeper())
    env.process(storm(target))
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    return {
        "interrupts": float(n_interrupts),
        "delivered": float(caught[0]),
        "sim_end_s": env.now,
        "elapsed_s": elapsed,
        "interrupts_per_s": n_interrupts / elapsed if elapsed > 0 else 0.0,
    }


def kernel_counters(n_events: int = 50_000) -> Dict[str, float]:
    """Kernel freelist telemetry through the metrics registry.

    Drains ``n_events`` back-to-back timeouts and adopts the
    environment's freelist counters into a
    :class:`~repro.obs.metrics.MetricsRegistry` so the ``perf``
    artifact reads them the same way the telemetry plane would.  The
    counts are simulated-deterministic; only the sibling rate parts
    are wall-clock volatile.
    """
    env = Environment()

    def spin():
        for _ in range(n_events):
            yield env.timeout(1e-6)

    env.process(spin())
    env.run()

    registry = MetricsRegistry("kernel")
    registry.counter("sim.timeout_pool.hits").add(env.pool_hits)
    registry.counter("sim.timeout_pool.misses").add(env.pool_misses)
    total = env.pool_hits + env.pool_misses
    snapshot = registry.snapshot(env.now)
    snapshot.update({
        "events": float(n_events),
        "pool_hit_fraction": env.pool_hits / total if total else 0.0,
    })
    return snapshot


def batch_identity(n_arrivals: int = 30_000) -> Dict[str, float]:
    """EventPopulation vs per-arrival driver: identical handler log.

    The same deterministic arrival schedule (with same-instant runs,
    so the vectorized batch path actually batches) is driven once
    through :class:`~repro.sim.EventPopulation` and once through the
    one-timeout-per-arrival generator it replaced.  Fire logs must be
    equal; the wall-clock ratio is recorded as the (volatile)
    ``batch_speedup`` trajectory metric.
    """
    times: List[float] = []
    t = 0.0
    for i in range(n_arrivals):
        t += (i % 7) * 1.0e-6  # zero steps -> same-instant batches
        times.append(t)

    def run(batched: bool) -> Tuple[List, float]:
        env = Environment()
        log: List = []

        def handler(k):
            log.append((env.now, k))
            return None

        started = time.perf_counter()
        if batched:
            EventPopulation(env, times, handler)
            env.run()
        else:
            def driver():
                for k, at in enumerate(times):
                    delay = at - env.now
                    if delay > 0:
                        yield env.timeout(delay)
                    handler(k)

            env.process(driver())
            env.run()
        return log, time.perf_counter() - started

    batch_log, batch_s = run(batched=True)
    scalar_log, scalar_s = run(batched=False)
    return {
        "arrivals": float(n_arrivals),
        "fire_log_identical": 1.0 if batch_log == scalar_log else 0.0,
        "batch_elapsed_s": batch_s,
        "scalar_elapsed_s": scalar_s,
        "batch_speedup": scalar_s / batch_s if batch_s > 0 else 0.0,
    }


def perf_parts() -> Dict[str, Dict[str, float]]:
    """The ``perf`` bench experiment: one table per microbenchmark."""
    return {
        "event_throughput": event_throughput(),
        "timeout_churn": timeout_churn(),
        "interrupt_storm": interrupt_storm(),
        "kernel_counters": kernel_counters(),
        "batch_identity": batch_identity(),
    }
