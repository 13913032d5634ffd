"""Event-population batching: N homogeneous events, one queue entry.

An open-loop arrival driver written as a generator costs, per arrival:
one ``Timeout``, one process resume (a ``generator.send``), one handler
spawn, and one scheduler round trip.  For the benchmark suite's
drivers, everything except the handler spawn is pure overhead — the
arrival times are known (or can be sampled) upfront.

:class:`EventPopulation` collapses the whole stream: arrival times are
precomputed into a list of floats, and a single reusable *tick* event
walks it, firing every arrival due at the current instant in one
callback pass.  No driver process exists, no per-arrival ``Timeout``
is allocated, and same-time ties batch into one scheduler entry.

The population is itself an :class:`~repro.sim.core.Event`: it
triggers with the number of fired arrivals once the vector drains, so
callers can ``yield population`` or ``env.run(until=population)`` just
as they would join the old driver process.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Iterable, List

from .core import NORMAL, Environment, Event

__all__ = ["EventPopulation"]


class _Tick(Event):
    """The population's reusable scheduler entry (never pooled)."""

    __slots__ = ()


class EventPopulation(Event):
    """Fire ``handler(i)`` at each precomputed ``times[i]``.

    ``times`` must be sorted ascending and absolute (simulated
    seconds); arrivals strictly in the past are fired at the current
    instant.  ``handler`` follows the arrival-driver convention: a
    returned generator is spawned as its own process, ``None`` means
    the handler already did its work inline.

    The population triggers (as an event) with the count of arrivals
    fired once the vector is exhausted.
    """

    __slots__ = ("handler", "name", "_times_list", "_idx", "_n", "_tick",
                 "_cbs")

    def __init__(self, env: Environment, times: Iterable[float],
                 handler: Callable[[int], object],
                 name: str = "population"):
        super().__init__(env)
        times_list: List[float] = [float(t) for t in times]
        self._times_list = times_list
        self.handler = handler
        self.name = name
        self._idx = 0
        self._n = len(times_list)
        if self._n == 0:
            self.succeed(0)
            return
        tick = _Tick.__new__(_Tick)
        tick.env = env
        tick.callbacks = None
        tick._value = None
        tick._ok = True
        tick._defused = True
        tick._cancelled = False
        self._tick = tick
        #: one persistent callbacks list, re-attached at every re-arm
        self._cbs = [self._advance]
        self._arm()

    def _arm(self) -> None:
        tick = self._tick
        tick.callbacks = self._cbs
        env = self.env
        now = env.now
        delay = self._times_list[self._idx] - now
        env._eid += 1
        heappush(env._queue, (now + (delay if delay > 0.0 else 0.0),
                              NORMAL, env._eid, tick))

    def _advance(self, _event: Event) -> None:
        env = self.env
        idx = self._idx
        n = self._n
        times = self._times_list
        now = env.now
        handler = self.handler
        name = self.name
        process = env.process
        while True:
            work = handler(idx)
            if work is not None:
                process(work, name=f"{name}-req{idx}")
            idx += 1
            if idx >= n or times[idx] > now:
                break
        self._idx = idx
        if idx < n:
            self._arm()
        else:
            self.succeed(idx)
