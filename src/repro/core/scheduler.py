"""Sproc scheduling across DPU cores (paper Section 5, Challenge 1).

The paper points at iPipe's discipline: an FCFS queue for
low-variance tasks and a deficit-round-robin (DRR) queue for
high-variance ones, dispatched over DPU cores.  Three policies are
implemented for the A1 ablation:

* ``fcfs`` — one global FIFO.  Optimal for uniform tasks; long tasks
  head-of-line-block short ones under mixed workloads.
* ``drr`` — deficit round robin across tenants/classes: each class
  accumulates quantum (in estimated cycles) per round and may dispatch
  while its deficit covers the task at the queue head.  Fair under
  mixed task sizes.
* ``hybrid`` — iPipe-style: tasks whose estimated cost is below a
  threshold go to the FCFS fast path; the rest are DRR'd.  The FCFS
  queue has dispatch priority.

Tasks run to completion on a dedicated core (the actor model used by
NIC offload frameworks): the core is held even across I/O waits, which
is exactly why scheduling discipline matters.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..hardware.cpu import CpuCluster
from ..obs.trace import NULL_TRACER
from ..sim import Environment, Store
from ..sim.stats import Counter, Tally

__all__ = ["SprocScheduler", "ScheduledTask", "POLICIES"]

POLICIES = ("fcfs", "drr", "hybrid")

#: DRR credit a tenant's queue earns per round
DRR_QUANTUM_CYCLES = 50_000.0

#: the hybrid policy's estimate below which a sproc takes the FCFS lane
HYBRID_THRESHOLD_CYCLES = 100_000.0


class ScheduledTask:
    """One sproc invocation awaiting dispatch."""

    __slots__ = ("run", "estimated_cycles", "tenant", "enqueued_at",
                 "started_at")

    def __init__(self, run: Callable, estimated_cycles: float,
                 tenant: str, enqueued_at: float):
        self.run = run                       # () -> generator
        self.estimated_cycles = estimated_cycles
        self.tenant = tenant
        self.enqueued_at = enqueued_at
        self.started_at: Optional[float] = None


class SprocScheduler:
    """Dispatches sproc tasks onto a CPU cluster per policy."""

    def __init__(self, env: Environment, cpu: CpuCluster,
                 policy: str = "hybrid",
                 spillover_cpu: Optional[CpuCluster] = None,
                 spillover_backlog: int = 0,
                 name: str = "sched", tracer=None):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        self.env = env
        self.cpu = cpu
        self.policy = policy
        self.quantum = DRR_QUANTUM_CYCLES
        self.threshold = HYBRID_THRESHOLD_CYCLES
        #: iPipe-style load migration: when the DPU backlog exceeds
        #: ``spillover_backlog`` tasks, overflow dispatches to
        #: ``spillover_cpu`` (host cores) instead of queueing.
        #: Disabled when ``spillover_cpu`` is None or backlog is 0.
        self.spillover_cpu = spillover_cpu
        self.spillover_backlog = spillover_backlog
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._fcfs: Deque[ScheduledTask] = deque()
        self._drr_queues: Dict[str, Deque[ScheduledTask]] = {}
        self._deficits: Dict[str, float] = {}
        self._drr_order: Deque[str] = deque()
        self._kick = Store(env, name=f"{name}.kick")
        self.dispatched = Counter(f"{name}.dispatched")
        self.spilled = Counter(f"{name}.spilled")
        self.wait_time = Tally(f"{name}.wait")
        self.wait_time_short = Tally(f"{name}.wait_short")
        self.wait_time_long = Tally(f"{name}.wait_long")
        env.process(self._dispatch_loop(), name=f"{name}-dispatch")

    # -- submission ---------------------------------------------------------

    def submit(self, task: ScheduledTask) -> None:
        """Queue a task for dispatch (or migrate it to the host).

        Besides backlog-driven migration, a DPU cluster inside a fault
        ``down`` window sheds new arrivals straight to the host (tasks
        already running on dedicated cores are unaffected).
        """
        if self.spillover_cpu is not None:
            injector = getattr(self.cpu, "injector", None)
            if (injector is not None
                    and injector.is_down(f"cpu.{self.cpu.name}")):
                self._spill(task)
                return
            if (self.spillover_backlog > 0
                    and self.backlog >= self.spillover_backlog):
                self._spill(task)
                return
        if self.policy == "fcfs":
            self._fcfs.append(task)
        elif self.policy == "drr":
            self._enqueue_drr(task)
        else:  # hybrid
            if task.estimated_cycles <= self.threshold:
                self._fcfs.append(task)
            else:
                self._enqueue_drr(task)
        self._kick.put(True)

    def _enqueue_drr(self, task: ScheduledTask) -> None:
        queue = self._drr_queues.get(task.tenant)
        if queue is None:
            queue = deque()
            self._drr_queues[task.tenant] = queue
            self._deficits[task.tenant] = 0.0
        if not queue:
            self._drr_order.append(task.tenant)
        queue.append(task)

    @property
    def backlog(self) -> int:
        return (len(self._fcfs)
                + sum(len(q) for q in self._drr_queues.values()))

    def _spill(self, task: ScheduledTask) -> None:
        """Run a task on the host cluster (load migration)."""
        self.spilled.add(1)
        self.tracer.instant(
            "ce.sched.spill", category="compute", tenant=task.tenant,
            estimated_cycles=task.estimated_cycles,
            backlog=self.backlog,
        )

        def spilled_runner():
            core = yield from self.spillover_cpu.acquire_core()
            self._start(task, core)

        self.env.process(spilled_runner(), name=f"{self.name}-spill")

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            yield self._kick.get()
            while self.backlog:
                task = self._pick()
                core = yield from self.cpu.acquire_core()
                self._start(task, core)
            # Drain stale kicks so the store does not grow unboundedly.
            while len(self._kick.items):
                yield self._kick.get()

    def _pick(self) -> ScheduledTask:
        """Select the next task according to the active policy (there
        is one: the backlog is not empty)."""
        if self._fcfs:
            return self._fcfs.popleft()
        return self._pick_drr()

    def _pick_drr(self) -> ScheduledTask:
        # Classic DRR: visit classes round-robin, granting one quantum
        # per visit; dispatch when the class's deficit covers its head
        # task.  Terminates because every full rotation strictly grows
        # each non-empty class's deficit.  A class is in the order
        # exactly while its queue is non-empty (_enqueue_drr adds it on
        # its first task, this pops it with its last).
        while True:
            tenant = self._drr_order[0]
            queue = self._drr_queues[tenant]
            head = queue[0]
            if self._deficits[tenant] >= head.estimated_cycles:
                self._deficits[tenant] -= head.estimated_cycles
                queue.popleft()
                if not queue:
                    self._drr_order.popleft()
                    self._deficits[tenant] = 0.0
                return head
            self._deficits[tenant] += self.quantum
            self._drr_order.rotate(-1)

    def _start(self, task: ScheduledTask, core) -> None:
        task.started_at = self.env.now
        waited = task.started_at - task.enqueued_at
        self.wait_time.observe(waited)
        if task.estimated_cycles <= self.threshold:
            self.wait_time_short.observe(waited)
        else:
            self.wait_time_long.observe(waited)
        self.dispatched.add(1)
        if self.tracer.enabled:
            self.tracer.instant(
                "ce.sched.dispatch", category="compute",
                tenant=task.tenant,
                estimated_cycles=task.estimated_cycles,
                waited_s=waited,
            )

        def runner():
            try:
                yield from task.run(core)
            finally:
                core.release()
                self._kick.put(True)

        self.env.process(runner(), name=f"{self.name}-task")
