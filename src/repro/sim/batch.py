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

The hybrid fluid mode (:mod:`repro.sim.fluid`) uses :meth:`skip_to`
to advance a population past an analytically-solved steady-state
window without firing the skipped arrivals.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, List

from .core import NORMAL, _PENDING, Environment, Event

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

    __slots__ = ("times", "handler", "name", "_times_list", "_idx", "_n",
                 "_tick", "_cbs", "_fired")

    def __init__(self, env: Environment, times: Iterable[float],
                 handler: Callable[[int], object],
                 name: str = "population"):
        super().__init__(env)
        times_list: List[float] = [float(t) for t in times]
        self.times = self._times_list = times_list
        self.handler = handler
        self.name = name
        self._idx = 0
        self._n = len(times_list)
        self._fired = 0
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

    # -- introspection -------------------------------------------------------

    @property
    def scheduled(self) -> int:
        """Total arrivals in the population."""
        return self._n

    @property
    def fired(self) -> int:
        """Arrivals fired so far."""
        return self._fired

    @property
    def skipped(self) -> int:
        """Arrivals consumed without firing (hybrid fluid skips)."""
        return self._idx - self._fired

    @property
    def remaining(self) -> int:
        """Arrivals not yet fired or skipped."""
        return self._n - self._idx

    # -- mechanics -----------------------------------------------------------

    def _arm(self) -> None:
        tick = self._tick
        tick.callbacks = self._cbs
        env = self.env
        delay = self._times_list[self._idx] - env._now
        env._enqueue(tick, NORMAL, delay if delay > 0.0 else 0.0)

    def _advance(self, _event: Event) -> None:
        env = self.env
        idx = self._idx
        n = self._n
        if idx >= n:
            # drained by skip_to while this tick was in flight
            if self._value is _PENDING:
                self.succeed(self._fired)
            return
        times = self._times_list
        now = env._now
        if times[idx] > now:
            # skip_to moved the cursor forward: re-arm at the new head
            self._arm()
            return
        handler = self.handler
        name = self.name
        process = env.process
        fired = self._fired
        while True:
            work = handler(idx)
            if work is not None:
                process(work, name=f"{name}-req{idx}")
            fired += 1
            idx += 1
            if idx >= n or times[idx] > now:
                break
        self._idx = idx
        self._fired = fired
        if idx < n:
            self._arm()
        else:
            self.succeed(fired)

    def skip_to(self, t: float) -> int:
        """Advance past every arrival strictly before ``t``, unfired.

        The hybrid fluid mode calls this after solving a steady-state
        window analytically: the skipped arrivals' load has already
        been credited flow-level, so firing them would double-count.
        Returns the number of arrivals skipped.  The pending tick
        notices the moved cursor when it fires and re-arms itself at
        the new head (or completes the population).
        """
        idx = self._idx
        new_idx = bisect_left(self._times_list, t, idx)
        self._idx = new_idx
        return new_idx - idx
