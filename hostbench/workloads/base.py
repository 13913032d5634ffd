"""What every workload hands back, and the counter readers they share."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Outcome", "Scenario", "poisson_instants", "run_sliced",
           "core_counts", "cpu_counts", "nic_counts", "ssd_ios",
           "tcp_counts"]


@dataclass
class Outcome:
    """One repeat's simulated results, as read by ``collect``."""

    #: every simulated result (public counters, outcome counts, raw
    #: per-request latencies) — the digest is taken over this
    simulated: dict
    #: simulated latency per request/query/sproc in microseconds, from
    #: the scheduled arrival; None = unanswered, rejected or failed
    latencies_us: List[Optional[float]]
    #: what a missing answer is charged in percentiles: the simulated
    #: run horizon (window + drain), i.e. "still waiting at the end"
    censor_us: float
    #: successful on-time answers and the simulated window they fell in
    good: int
    window_s: float
    #: host-CPU busy / elapsed (sim) on the DPDPU path
    host_cores: float
    #: simulated operations behind ``harness.host_us_per_sim_op``
    sim_ops: int
    #: per-layer work counts (metric name -> value; None = unavailable)
    counts: Dict[str, Optional[float]]
    #: workload invariants: (check name, passed)
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: the latencies the p99 is taken over, when that is not all of
    #: ``latencies_us`` (``cluster_*``: the window after the failover)
    tail_latencies_us: Optional[List[Optional[float]]] = None


class Scenario:
    """One repeat of one workload: five phases the runner times.

    Subclasses define ``FULL`` and ``REDUCED`` size constants (the
    reduced set is the warm-up and the self-test size) and the phases:
    ``build`` the topology through public constructors, ``generate``
    inputs from the seed, ``connect`` clients, ``run`` the simulation,
    ``collect`` outcomes and counters into an :class:`Outcome`.
    ``run`` calls ``self.spans.pace()`` between slices of its work
    (a stretch of simulated time, a query, a sproc call), which is
    where the runner's reference spins go.
    """

    name = ""
    FULL: dict = {}
    REDUCED: dict = {}
    #: the same scenario with tracing off (``cluster_traced`` only):
    #: run once per ``--traced`` invocation as the zero-perturbation
    #: reference
    untraced_twin = None
    #: per-layer metric stem fed by this workload's ``op:`` spans
    op_metric: Optional[str] = None

    def __init__(self, sizes: dict, seed: int, spans):
        self.sizes = sizes
        self.seed = seed
        self.spans = spans

    def build(self) -> None:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def connect(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def collect(self) -> Outcome:
        raise NotImplementedError


def poisson_instants(seed, count: int, start_s: float,
                     duration_s: float) -> List[float]:
    """``count`` arrival instants of a Poisson stream over the window.

    Given how many arrivals a Poisson process has in a window, their
    instants are independent and uniform over it; drawing them that
    way gives every seed Poisson gaps and the same amount of work
    (``repro.workloads.poisson_arrivals`` lets the count vary by 1 %
    from seed to seed, and host time with it).  Fed to
    ``repro.sim.EventPopulation``, each fires exactly when due.
    """
    rng = random.Random(seed)
    return sorted(start_s + duration_s * rng.random()
                  for _ in range(count))


def run_sliced(env, until: float, slice_s: float, pace) -> None:
    """``env.run(until=until)`` in slices of simulated time with
    ``pace()`` between them."""
    while env.now < until:
        env.run(until=min(until, env.now + slice_s))
        pace()


def core_counts(envs: Iterable) -> Dict[str, Optional[float]]:
    """Scheduler work counts summed over ``envs``.

    ``sim.core.entries`` has no public counter yet: it is read from
    ``Environment._eid`` here, in this one place, and reported as None
    (not an error) if that attribute disappears.
    """
    envs = list(envs)
    entries: Optional[float] = 0.0
    for env in envs:
        eid = getattr(env, "_eid", None)
        if eid is None:
            entries = None
            break
        entries += eid
    hits = sum(env.pool_hits for env in envs)
    misses = sum(env.pool_misses for env in envs)
    return {
        "sim.core.entries": entries,
        "sim.core.pool_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "sim.core.calendar_promotions":
            float(sum(env.calendar_promotions for env in envs)),
    }


def cpu_counts(host_cpus: Iterable, dpu_cpus: Iterable
               ) -> Dict[str, Optional[float]]:
    """Busy sim-seconds per CPU class and core-pool grants served."""
    host_cpus, dpu_cpus = list(host_cpus), list(dpu_cpus)
    return {
        "hardware.host_cpu.busy_sim_s":
            sum(cpu.busy_seconds() for cpu in host_cpus),
        "hardware.dpu_cpu.busy_sim_s":
            sum(cpu.busy_seconds() for cpu in dpu_cpus),
        "sim.resources.served":
            float(sum(cpu.core_pool.total_served
                      for cpu in host_cpus + dpu_cpus)),
    }


def nic_counts(nics: Iterable) -> Dict[str, Optional[float]]:
    """Frames and bytes transmitted over ``nics``."""
    nics = list(nics)
    return {
        "hardware.nic.tx_frames":
            float(sum(nic.tx_frames.value for nic in nics)),
        "hardware.nic.tx_bytes":
            float(sum(nic.tx_bytes.value for nic in nics)),
    }


def ssd_ios(servers: Iterable) -> float:
    """Reads + writes over every SSD of ``servers``."""
    return float(sum(ssd.reads.value + ssd.writes.value
                     for server in servers for ssd in server.ssds))


def tcp_counts(stacks: Iterable) -> Dict[str, Optional[float]]:
    """Segments sent and retransmitted over ``stacks``.

    Retransmits are per-connection counters and a stack has no public
    connection list: read through ``_connections`` here only, None if
    it disappears.
    """
    stacks = list(stacks)
    retransmits: Optional[float] = 0.0
    for stack in stacks:
        connections = getattr(stack, "_connections", None)
        if connections is None:
            retransmits = None
            break
        retransmits += sum(c.retransmits.value
                           for c in connections.values())
    return {
        "netstack.tcp.segments_tx":
            float(sum(stack.segments_tx.value for stack in stacks)),
        "netstack.tcp.retransmits": retransmits,
    }
