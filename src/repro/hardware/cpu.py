"""CPU cluster model.

A :class:`CpuCluster` is a pool of identical cores (host EPYC cores or
DPU Arm cores).  Work is expressed in *cycles*; a core executes
``cycles / frequency_hz`` seconds of simulated time per unit of work.

Two usage patterns:

* **transient work** — ``yield from cluster.execute(cycles)`` acquires a
  core, burns the cycles, releases the core.  Used for per-request
  processing (TCP sends, sproc bodies).
* **dedicated cores** — a long-lived service acquires a core once with
  ``cluster.acquire_core()`` and then charges work onto it with
  ``yield from core.run(cycles)``.  Used for polling loops (SPDK-style
  reactors, the NE DMA poller).

Both are accounted in the cluster's busy-time integral, so
``busy_seconds()`` over a window is the paper's "CPU cores" metric:
the time-averaged number of busy cores (``bench.harness.CoreMeter``).
"""

from __future__ import annotations

from ..errors import FaultInjectedError
from ..sim import Environment, Resource
from ..sim.stats import Counter

__all__ = ["CpuCluster", "DedicatedCore"]


class DedicatedCore:
    """A core held long-term by a service (e.g. a polling reactor)."""

    def __init__(self, cluster: "CpuCluster", request):
        self._cluster = cluster
        self._request = request
        self.released = False

    def run(self, cycles: float):
        """Burn ``cycles`` of work on this core (generator)."""
        if self.released:
            raise RuntimeError("core already released")
        yield from self._cluster._burn(cycles)

    def sleep(self, seconds: float):
        """Hold the core idle (busy-waiting poll loops still occupy it)."""
        if self.released:
            raise RuntimeError("core already released")
        yield self._cluster.env.timeout(seconds)

    def release(self) -> None:
        """Return the core to the cluster."""
        if not self.released:
            self._cluster._cores.release(self._request)
            self.released = True


class CpuCluster:
    """A pool of identical cores with utilization accounting."""

    def __init__(self, env: Environment, cores: int, frequency_hz: float,
                 name: str = "cpu", cpu_class: str = "host"):
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        if frequency_hz <= 0:
            raise ValueError(f"non-positive frequency {frequency_hz}")
        if cpu_class not in ("host", "dpu"):
            raise ValueError(f"unknown cpu class {cpu_class!r}")
        self.env = env
        self.cores = cores
        self.frequency_hz = float(frequency_hz)
        self.name = name
        self.cpu_class = cpu_class
        self._cores = Resource(env, capacity=cores, name=name)
        self.cycles_charged = Counter(f"{name}.cycles")
        #: optional FaultInjector; site cpu.<name>.  Only the transient
        #: execute() path is hooked — dedicated cores (reactors, pollers)
        #: keep running so services survive a crash window and recover.
        self.injector = None

    # -- conversions ---------------------------------------------------------

    def seconds_for(self, cycles: float) -> float:
        """Wall time one core needs for ``cycles`` of work."""
        if cycles < 0:
            raise ValueError(f"negative cycles {cycles}")
        return cycles / self.frequency_hz

    # -- execution -----------------------------------------------------------

    def execute(self, cycles: float):
        """Acquire a core, burn ``cycles``, release (generator).

        Usage inside a process: ``yield from cluster.execute(c)``.

        Hot path: when a core is free and nobody queues, the acquire,
        the burn, and the release fuse into one scheduler entry via
        :meth:`Resource.hold` — the core is busy for the identical
        simulated interval, without a request event or a release
        round trip.
        """
        if self.injector is not None:
            site = f"cpu.{self.name}"
            if self.injector.is_down(site):
                raise FaultInjectedError(
                    f"{site} crashed at t={self.env.now:.6f}",
                    site=site, kind="down",
                )
            cycles *= self.injector.slowdown(site)
        duration = self.seconds_for(cycles)
        hold = self._cores.hold(duration) if duration > 0 else None
        if hold is not None:
            self.cycles_charged.add(cycles)
            yield hold
            return
        with self._cores.request() as req:
            yield req
            yield from self._burn(cycles)

    def charge_async(self, cycles: float) -> bool:
        """Burn ``cycles`` fire-and-forget, if a core is free *now*.

        Eventless fast path for charges nothing waits on (softirq
        accounting, frontend bookkeeping): reserves a core for the
        burn interval — contending and accounted exactly like
        :meth:`execute` — without any scheduler entry.  Returns
        ``False`` when the cluster is contended or a fault injector
        is active; callers then fall back to a worker process so
        fault semantics hold.
        """
        if self.injector is not None:
            return False
        duration = cycles / self.frequency_hz
        if duration <= 0:
            return True
        if self._cores.reserve(duration):
            self.cycles_charged.value += cycles
            return True
        return False

    def acquire_core(self):
        """Acquire a core long-term (generator returning DedicatedCore).

        Usage: ``core = yield from cluster.acquire_core()``.
        """
        req = self._cores.request()
        yield req
        return DedicatedCore(self, req)

    def _burn(self, cycles: float):
        duration = self.seconds_for(cycles)
        self.cycles_charged.add(cycles)
        if duration > 0:
            yield self.env.timeout(duration)

    # -- accounting ----------------------------------------------------------

    @property
    def core_pool(self):
        """The underlying core :class:`~repro.sim.resources.Resource`.

        Public handle for readers of its work counters (``hostbench``
        sums ``total_served`` over every cluster's pool).
        """
        return self._cores

    @property
    def queue_length(self) -> int:
        """Number of execution requests waiting for a core."""
        return self._cores.queue_length

    def busy_seconds(self) -> float:
        """Total core-seconds of occupancy so far."""
        return self._cores.busy_time()

    def __repr__(self) -> str:
        return (
            f"CpuCluster({self.name}: {self.cores} x "
            f"{self.frequency_hz / 1e9:.2f} GHz, busy={self._cores.count})"
        )
