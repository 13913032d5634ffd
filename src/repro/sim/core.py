"""Discrete-event simulation kernel.

This module implements a small, SimPy-flavoured discrete-event engine:
an :class:`Environment` drives a time-ordered event queue, and
:class:`Process` objects are Python generators that ``yield`` events
(timeouts, resource requests, other processes) to suspend until those
events fire.

The engine is deliberately deterministic: events scheduled for the same
simulated time are processed in schedule order (FIFO within a priority
band), so every simulation in this repository is exactly reproducible.

The queue is one binary heap of ``(time, priority, eid, event)``
entries and :meth:`Environment.run` is the one loop that drains it.

Fast paths (see ``docs/PERFORMANCE.md``): every event class uses
``__slots__``; the clock ``Environment.now`` is a plain attribute that
only ``run()`` advances, so reading it is never a call; the hot events
(``Timeout``, ``Process`` with its ``Initialize``, and the resource
layer's requests) set their slots in one frame, with no constructor
chain, and the hot pushes (``succeed``, a process's normal end, those
constructors, a population's tick) put their ``(time, priority, eid,
event)`` entry on the heap themselves — ``_enqueue`` is the entry
point for the cold callers; :meth:`Environment.run` pops and fires
entries inline; timeouts are recycled through a freelist when
provably unreferenced; and :meth:`Timeout.cancel` marks dead timers
that the scheduler skips without perturbing the clock. None of these
change simulated results — they only reduce the real time spent per
simulated event.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "AllOf",
    "AnyOf",
    "URGENT",
    "NORMAL",
    "when_done",
]

#: Scheduling priority for events that must run before same-time peers
#: (used by the engine for process resumption bookkeeping).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Upper bound on recycled Timeout objects kept per environment.
_TIMEOUT_POOL_CAP = 1024


class SimulationError(Exception):
    """Raised for illegal operations on the simulation kernel."""


# Sentinels for event state.
_PENDING = object()


def _completed_event(env: "Environment", value: Any) -> "Event":
    """A pre-processed successful Event, bypassing ``__init__``.

    Inline fast paths in the resource layer hand these to yielding
    processes: the event is born already processed (``callbacks`` is
    ``None``), so no callbacks list is ever allocated and the
    scheduler never sees it.
    """
    event = Event.__new__(Event)
    event.env = env
    event.callbacks = None
    event._value = value
    event._ok = True
    event._defused = True
    event._cancelled = False
    return event


def when_done(event: "Event", callback) -> None:
    """Call ``callback(event)`` once ``event`` is processed: at once if
    it already is (an inline completion), else as one of its callbacks.
    """
    if event.callbacks is None:
        callback(event)
    else:
        event.callbacks.append(callback)


class Event:
    """An occurrence at a point in simulated time.

    Events move through three states: *untriggered* (created),
    *triggered* (given a value or an exception and queued), and
    *processed* (callbacks executed).  Processes wait on events by
    yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled")

    def __init__(self, env: "Environment"):
        # The hot events (Timeout, Process and its Initialize, the
        # resource layer's _Request / _StoreGet, _completed_event and
        # the population's tick) set these six slots themselves: a new
        # slot here goes there too.
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: failures not observed by anyone are programming errors;
        #: True means "nothing to surface" (also the succeed() state).
        self._defused = True
        #: lazily-cancelled queue entries are skipped by the scheduler
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) queued."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance on failure)."""
        if self._value is _PENDING:
            raise SimulationError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._queue, (env.now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process sees the exception re-raised at its ``yield``.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._defused = False
        self.env._enqueue(self)
        return self

    def _defuse(self) -> None:
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "processed" if self.callbacks is None
            else "triggered" if self._value is not _PENDING
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = True
        self._cancelled = False
        env._eid += 1
        heappush(env._queue, (env.now + delay, NORMAL, env._eid, self))

    def succeed(self, value: Any = None) -> "Event":
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError("Timeout events trigger themselves")

    def cancel(self) -> None:
        """Lazily cancel a pending timer (no-op once processed).

        The queue entry stays behind but the scheduler skips it
        without advancing the clock, so a cancelled timer neither
        fires its callbacks nor perturbs the simulation's end time.
        Only cancel timers that no process is blocked on — a waiter
        yielded on a cancelled timeout would never resume.
        """
        if self.callbacks is not None:
            self._cancelled = True


class Initialize(Event):
    """Internal event used to start a process at creation time (built
    by :class:`Process`, which sets its slots)."""

    __slots__ = ()


class Process(Event):
    """A generator-based simulation coroutine.

    A process is itself an event: it triggers when the generator
    returns (value = the ``return`` value) or raises (failure).  Other
    processes may therefore ``yield proc`` to join on it.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = True
        self._cancelled = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process last suspended on.  Holding it keeps
        #: that event off the timeout freelist after the process ends,
        #: which the pinned ``pool_hit_ratio`` counts (ROADMAP 1(a)).
        self._target: Optional[Event] = None
        init = Initialize.__new__(Initialize)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = True
        init._cancelled = False
        env._eid += 1
        heappush(env._queue, (env.now, URGENT, env._eid, init))

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._eid += 1
                heappush(env._queue, (env.now, NORMAL, env._eid, self))
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._defused = False
                env._enqueue(self)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: "
                    f"{next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = error
                continue

            if next_event.callbacks is not None:
                # Not yet processed: register and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: loop and feed its value immediately.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        # A pending process names what it waits on, so a run that ends
        # with work outstanding shows where each process is stuck.
        state = ("done" if self._value is not _PENDING
                 else f"waiting on {self._target!r}")
        return f"<Process {self.name!r} {state}>"


class ConditionEvent(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events belong to different environments")
        self._done = 0
        if not self._events:
            self.succeed(self._collect())
            return
        for ev in self._events:
            when_done(ev, self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self._events
            if ev._value is not _PENDING and ev._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Triggers when every constituent event has triggered.

    Succeeds with a dict mapping each event to its value; fails as soon
    as any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class AnyOf(ConditionEvent):
    """Triggers as soon as one constituent event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation clock plus the pending-event queue.

    The queue is a binary heap (``heapq``) of ``(time, priority, eid,
    event)`` entries; ``eid`` is the schedule index, so entries leave
    in exact ``(time, priority, schedule order)`` order.
    """

    #: Always 0: the calendar tier it counted is gone.  Read only by
    #: ``hostbench/workloads/base.py``; leaves with hostbench v2.
    calendar_promotions = 0

    def __init__(self):
        #: current simulated time (seconds by convention); a plain
        #: attribute that only ``run()`` advances
        self.now = 0.0
        self._queue: list = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: recycled Timeout objects (see Environment.timeout)
        self._timeout_pool: list = []
        #: freelist telemetry, surfaced by the ``perf`` experiment
        self.pool_hits = 0
        self.pool_misses = 0
        self._ids: dict = {}

    def next_id(self, kind: str) -> int:
        """The next number, from 1, in this simulation's ``kind``
        sequence: connection and queue-pair numbers are unique within a
        simulation and do not remember an earlier one in the process."""
        number = self._ids[kind] = self._ids.get(kind, 0) + 1
        return number

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now.

        Hot path: reuses a pooled :class:`Timeout` when one is
        available.  Pooled objects were proven unreferenced (refcount
        check at recycle time), so reuse is invisible to simulation
        code.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout._ok = True
            timeout._defused = True
            timeout._cancelled = False
            self.pool_hits += 1
            self._eid += 1
            heappush(self._queue,
                     (self.now + delay, NORMAL, self._eid, timeout))
            return timeout
        self.pool_misses += 1
        return Timeout(self, delay, value)

    def process(self, generator: Generator,
                name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any one of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling and execution -------------------------------------------

    def _enqueue(self, event: Event) -> None:
        # The push of a triggered event for the cold callers (a
        # failure, a process's failed end); the hot ones push inline.
        self._eid += 1
        heappush(self._queue, (self.now, NORMAL, self._eid, event))

    def peek(self) -> float:
        """Time of the next *live* event, or ``inf`` if none remain.

        Lazily-cancelled entries are purged here so a dead timer never
        masquerades as the next event.
        """
        queue = self._queue
        while queue:
            if not queue[0][3]._cancelled:
                return queue[0][0]
            heappop(queue)
        return float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until
        it is processed, returning its value).

        This is the engine's hot loop: it pops and fires entries
        inline, skips lazily-cancelled entries without advancing the
        clock, and recycles :class:`Timeout` objects that end the
        iteration with no outside references.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self.now})"
                )

        queue = self._queue
        pool = self._timeout_pool
        heappop_ = heappop
        getrefcount = sys.getrefcount
        timeout_type = Timeout
        pool_cap = _TIMEOUT_POOL_CAP
        while queue:
            if stop_event is not None and stop_event.callbacks is None:
                break
            if queue[0][0] > stop_time:
                self.now = stop_time
                break
            when, _prio, _eid, event = heappop_(queue)
            if event._cancelled:
                # Dead entry: drop without touching the clock.
                if (type(event) is timeout_type and len(pool) < pool_cap
                        and getrefcount(event) == 2):
                    pool.append(event)
                continue
            self.now = when
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                # A failure nobody waited on: surface it, don't lose it.
                raise event._value
            # Recycle plain timeouts nobody else references: the local
            # binding plus getrefcount's argument account for exactly
            # two references, so == 2 proves the object is unreachable
            # from simulation code and safe to reuse.
            if (type(event) is timeout_type and len(pool) < pool_cap
                    and getrefcount(event) == 2):
                pool.append(event)
        else:
            if stop_time != float("inf"):
                self.now = stop_time

        if stop_event is not None:
            if stop_event._value is _PENDING:
                raise SimulationError(
                    "run(until=event) exhausted the queue before the "
                    "event triggered"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        return None
