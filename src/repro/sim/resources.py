"""Queued resources for the simulation kernel.

Three classic primitives built on :mod:`repro.sim.core`:

* :class:`Resource` — a server pool with ``capacity`` slots and a FIFO
  (or priority) request queue.  Models CPU cores, accelerator queue
  slots, NIC DMA channels, SSD command slots.
* :class:`Container` — a homogeneous quantity (bytes of memory,
  credits) with blocking ``get``/``put``.
* :class:`Store` — a queue of distinct Python objects (packets,
  requests) with blocking ``get``/``put`` and optional capacity.

All requests are events, so processes compose them freely with
``any_of``/``all_of`` (e.g. request-with-timeout).

Hot paths: every class here carries ``__slots__`` and wait queues
are deques (O(1) at both ends).  A queued request is never withdrawn:
once issued it waits for its grant.  Requests that can be satisfied
at issue time (a free slot, an available item, sufficient level)
complete *inline*: the returned event is already
processed, so a yielding process continues immediately instead of
taking a trip through the event queue.  The simulated clock never
advances during an inline completion, so simulated timings are
unchanged — only the number of real scheduler iterations shrinks.
:class:`Container` and :class:`Store` also offer that completion with
no event at all: ``try_get`` / ``try_put`` take or give *now* and
refuse, changing nothing, exactly when ``get`` / ``put`` would queue —
``get`` / ``put`` are built on them, so the condition lives once.
A :class:`Resource` slot is taken fused (``hold``: one self-releasing
timeout; ``reserve``: no event) only when one private guard finds a
free slot with nobody queued, and ``occupy`` is the one place that
falls back to ``request()`` plus a timeout when it does not.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, List, Optional

from .core import (_PENDING, Environment, Event, SimulationError,
                   _completed_event)

__all__ = ["Resource", "PriorityResource", "Container", "Store", "REFUSED"]

#: What :meth:`Store.try_get` returns when :meth:`Store.get` would have
#: queued (a store may hold ``None``, so ``None`` cannot say it).
REFUSED = object()


class _Request(Event):
    """A pending claim on one slot of a :class:`Resource`."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0):
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = True
        self._cancelled = False
        self.resource = resource
        self.priority = priority
        resource._do_request(self)

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical slots with a FIFO wait queue."""

    __slots__ = ("env", "capacity", "name", "users", "_waiting", "_seq",
                 "_busy_integral", "_last_change", "_total_served",
                 "_res_expiry", "_res_count", "_res_wake")

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: List[_Request] = []
        self._waiting: deque = deque()
        self._seq = 0
        # Monitoring: integral of busy slots over time -> utilization.
        self._busy_integral = 0.0
        self._last_change = env.now
        self._total_served = 0
        # Eventless occupancy from :meth:`reserve`: a heap of expiry
        # times purged lazily by :meth:`_account`; _res_count is its
        # length, kept as an attribute for the hot occupancy sums.
        self._res_expiry: List[float] = []
        self._res_count = 0
        self._res_wake = False

    # -- public API ---------------------------------------------------------

    def request(self, priority: int = 0) -> _Request:
        """Claim one slot; the returned event fires when granted."""
        return _Request(self, priority)

    def release(self, request: _Request) -> None:
        """Return a previously granted slot.

        Releasing a request that was never granted does nothing: the
        only such release is the collector closing a finished run's
        abandoned process inside ``with resource.request()``, where
        raising would print from a generator finalizer at teardown.
        """
        if request in self.users:
            self._account()
            self.users.remove(request)
            self._grant_waiters()

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot (O(1))."""
        return len(self._waiting)

    def busy_time(self) -> float:
        """Slot-seconds of usage so far (integral of busy slots)."""
        self._account()
        return self._busy_integral

    @property
    def total_served(self) -> int:
        """Number of requests granted so far."""
        return self._total_served

    # -- fused fast paths ----------------------------------------------------

    def occupy(self, duration: float):
        """Hold one slot for ``duration`` (generator).

        The one place that chooses between a fused claim and a queued
        one: :meth:`hold` when a slot is free and nobody queues, else
        ``request()`` and a timeout.  The slot is busy for the same
        simulated interval either way.
        """
        hold = self.hold(duration)
        if hold is not None:
            yield hold
            return
        with self.request() as req:
            yield req
            yield self.env.timeout(duration)

    def hold(self, duration: float) -> Optional[Event]:
        """Claim a free slot for exactly ``duration``, auto-releasing.

        Fuses the transient acquire-burn-release pattern (one core for
        one quantum, the TX serializer for one frame) into a single
        scheduler entry: the returned timeout both resumes the caller
        and releases the slot at the same instant, instead of a
        request event, a timeout, and a release on resume.  Returns
        ``None`` when the resource is contended — callers then take
        the classic ``request()`` path (:meth:`occupy` makes that
        choice).  The slot is busy for the same simulated interval
        either way.
        """
        if not self._claimable():
            return None
        timeout = self.env.timeout(duration)
        self.users.append(timeout)
        self._total_served += 1
        timeout.callbacks.append(self._release_hold)
        return timeout

    def reserve(self, duration: float) -> bool:
        """Occupy one slot for ``duration`` with *no* scheduler event.

        The eventless cousin of :meth:`hold`, for fire-and-forget
        charges where nothing waits on the release (async CPU charges,
        ACK serialization).  The expiry lands in a small heap that
        :meth:`_account` purges lazily; the slot contends, shows up in
        utilization, and delays later claimants exactly like a hold,
        but costs zero queue traffic while uncontended.  A claimant
        that queues behind reservations is woken by a timer armed at
        the earliest expiry — so events are only paid when contention
        actually materialises.  Returns ``False`` when the resource is
        full or anyone is queued; callers then fall back to the
        evented paths.
        """
        if not self._claimable():
            return False
        heapq.heappush(self._res_expiry, self.env.now + duration)
        self._res_count += 1
        self._total_served += 1
        return True

    def unhold(self, timeout: Event) -> None:
        """Undo a :meth:`hold` made at the current instant.

        For fused fast paths that claim several resources and miss on
        a later one: no simulated time has passed since the hold, so
        cancelling its timeout and dropping the slot entry restores
        the resource exactly (the busy integral saw zero width).
        """
        timeout.cancel()
        self.users.remove(timeout)
        self._total_served -= 1

    def _release_hold(self, timeout: Event) -> None:
        self._account()
        self.users.remove(timeout)
        self._grant_waiters()

    # -- internals ----------------------------------------------------------

    def _claimable(self) -> bool:
        """The fused claims' guard: bring the busy integral up to now,
        then require a free slot with nobody queued (FIFO fairness).
        The common case, no reservation expired, is ``_account``
        inlined: this guard runs on every fused claim."""
        now = self.env.now
        res = self._res_expiry
        if res and res[0] <= now:
            self._account()
        elif now != self._last_change:
            self._busy_integral += \
                (len(self.users) + self._res_count) * (now - self._last_change)
            self._last_change = now
        return (len(self.users) + self._res_count < self.capacity
                and not self._waiting)

    def _account(self) -> None:
        now = self.env.now
        res = self._res_expiry
        if res and res[0] <= now:
            # Expired reservations stop counting at their expiry, not
            # at this (later) observation point: integrate segment by
            # segment so the busy integral matches what a chain of
            # real holds would have produced.
            last = self._last_change
            users = len(self.users)
            rc = self._res_count
            while res and res[0] <= now:
                expiry = heapq.heappop(res)
                if expiry > last:
                    self._busy_integral += (users + rc) * (expiry - last)
                    last = expiry
                rc -= 1
            self._res_count = rc
            self._last_change = last
        if now != self._last_change:
            self._busy_integral += \
                (len(self.users) + self._res_count) * (now - self._last_change)
            self._last_change = now

    def _do_request(self, request: _Request) -> None:
        self._account()
        # Not _claimable: no test of _waiting here, the queue jump
        # ROADMAP 1(b) fixes.
        if len(self.users) + self._res_count < self.capacity:
            # Inline grant: the request is brand-new, so no listener
            # exists yet and completing it without a queue round trip
            # is observationally identical (same slot, same sim time).
            self.users.append(request)
            self._total_served += 1
            request._ok = True
            request._value = request
            request.callbacks = None
        else:
            self._enqueue_waiter(request)
            if self._res_expiry:
                self._arm_res_wake()

    def _enqueue_waiter(self, request: _Request) -> None:
        self._waiting.append(request)

    def _next_waiter(self) -> Optional[_Request]:
        waiting = self._waiting
        while waiting:
            request = waiting.popleft()
            if request._value is _PENDING:
                return request
        return None

    def _grant(self, request: _Request) -> None:
        self._account()
        self.users.append(request)
        self._total_served += 1
        request.succeed(request)

    def _grant_waiters(self) -> None:
        while len(self.users) + self._res_count < self.capacity:
            nxt = self._next_waiter()
            if nxt is None:
                break
            self._grant(nxt)
        if self._res_expiry:
            self._arm_res_wake()

    def _arm_res_wake(self) -> None:
        # A waiter queued behind eventless reservations has nobody to
        # wake it: arm one timer at the earliest expiry (at most one
        # pending per resource).
        if self._res_wake or not self._waiting:
            return
        self._res_wake = True
        timer = self.env.timeout(self._res_expiry[0] - self.env.now)
        timer.callbacks.append(self._res_wake_fired)

    def _res_wake_fired(self, _event) -> None:
        self._res_wake = False
        self._account()
        self._grant_waiters()


class PriorityResource(Resource):
    """A :class:`Resource` whose waiters are served lowest-priority-first.

    Ties break FIFO.  Lower numeric priority = more urgent, matching the
    convention in iPipe-style NIC schedulers.  ``_waiting`` is a heap of
    ``(priority, seq, request)`` here, so everything in the base class
    that only asks whether or how many are queued (the fused claims'
    guard ``_claimable``, ``queue_length``) needs no override.
    """

    __slots__ = ()

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "priority-resource"):
        super().__init__(env, capacity, name)
        self._waiting: List = []

    def _enqueue_waiter(self, request: _Request) -> None:
        self._seq += 1
        heapq.heappush(self._waiting,
                       (request.priority, self._seq, request))

    def _next_waiter(self) -> Optional[_Request]:
        heap = self._waiting
        while heap:
            _prio, _seq, request = heapq.heappop(heap)
            if request._value is _PENDING:
                return request
        return None


class Container:
    """A blocking counter of homogeneous units (bytes, credits)."""

    __slots__ = ("env", "capacity", "name", "_level", "_getters",
                 "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0, name: str = "container"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = init
        self._getters: deque = deque()   # (amount, event)
        self._putters: deque = deque()   # (amount, event)

    @property
    def level(self) -> float:
        """Units currently available."""
        return self._level

    def try_get(self, amount: float) -> bool:
        """Remove ``amount`` units *now*, without an event.

        The eventless form of :meth:`get`: True when the units were on
        hand and nobody was queued ahead, so they are taken at this
        instant; False, with nothing changed, exactly when :meth:`get`
        would have queued.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        if self._getters or amount > self._level:
            return False
        self._level -= amount
        if self._putters:
            self._drain()
        return True

    def try_put(self, amount: float) -> bool:
        """Add ``amount`` units *now*, without an event.

        The eventless form of :meth:`put`: False, with nothing changed,
        exactly when :meth:`put` would have queued.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError(
                f"put of {amount} exceeds capacity {self.capacity}"
            )
        if self._putters or self._level + amount > self.capacity:
            return False
        self._level += amount
        if self._getters:
            self._drain()
        return True

    def get(self, amount: float) -> Event:
        """Event that fires once ``amount`` units have been removed."""
        if self.try_get(amount):
            return _completed_event(self.env, amount)
        event = Event(self.env)
        self._getters.append((amount, event))
        self._drain()
        return event

    def put(self, amount: float) -> Event:
        """Event that fires once ``amount`` units have been added."""
        if self.try_put(amount):
            return _completed_event(self.env, None)
        event = Event(self.env)
        self._putters.append((amount, event))
        self._drain()
        return event

    def _drain(self) -> None:
        getters = self._getters
        putters = self._putters
        progressed = True
        while progressed:
            progressed = False
            if putters:
                amount, event = putters[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    putters.popleft()
                    event.succeed()
                    progressed = True
            if getters:
                amount, event = getters[0]
                if amount <= self._level:
                    self._level -= amount
                    getters.popleft()
                    event.succeed(amount)
                    progressed = True


class _StoreGet(Event):
    """A pending (optionally filtered) take from a :class:`Store`."""

    __slots__ = ("_predicate",)

    def __init__(self, env: Environment,
                 predicate: Optional[Callable[[Any], bool]]):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = True
        self._cancelled = False
        self._predicate = predicate


class Store:
    """A blocking FIFO queue of arbitrary items."""

    __slots__ = ("env", "capacity", "name", "items", "_getters",
                 "_putters", "_tap")

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: str = "store"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()   # (item, event)
        self._tap = None                 # (predicate, handler)

    def __len__(self) -> int:
        return len(self.items)

    def set_tap(self, predicate: Callable[[Any], bool],
                handler: Callable[[Any], None]) -> None:
        """Consume matching items synchronously at put time.

        A tap replaces a dedicated consumer process that would park on
        ``get(predicate)``: matching items are handed to ``handler``
        during :meth:`put` (same simulated instant the process would
        have resumed, minus the queue round trip) and never enter the
        store; everything else flows normally.  One tap per store; the
        owner must be the store's only consumer of matching items.
        """
        if self._tap is not None:
            raise SimulationError(f"store {self.name} already has a tap")
        self._tap = (predicate, handler)

    def try_put(self, item: Any) -> bool:
        """Accept ``item`` *now*, without an event.

        The eventless form of :meth:`put`: True when a tap consumed the
        item or there was room with nobody queued ahead; False, with
        nothing changed, exactly when :meth:`put` would have queued.
        """
        tap = self._tap
        if tap is not None and tap[0](item):
            tap[1](item)
            return True
        if self._putters or len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        if self._getters:
            self._drain()
        return True

    def try_get(self, predicate: Optional[Callable[[Any], bool]] = None
                ) -> Any:
        """Take the next (matching) item *now*, without an event.

        The eventless form of :meth:`get`: returns the item, or
        :data:`REFUSED`, with nothing changed, exactly when :meth:`get`
        would have queued (no matching item, or a getter queued ahead).
        """
        items = self.items
        if not items or self._getters:
            return REFUSED
        if predicate is None:
            item = items.popleft()
        else:
            for index, item in enumerate(items):
                if predicate(item):
                    del items[index]
                    break
            else:
                return REFUSED
        if self._putters:
            self._drain()
        return item

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` is accepted into the store."""
        if self.try_put(item):
            return _completed_event(self.env, None)
        event = Event(self.env)
        self._putters.append((item, event))
        self._drain()
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Event that fires with the next item (optionally filtered).

        With ``predicate``, the first *matching* item is removed and
        returned; non-matching items stay queued for other getters.
        """
        item = self.try_get(predicate)
        if item is not REFUSED:
            return _completed_event(self.env, item)
        event = _StoreGet(self.env, predicate)
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        items = self.items
        putters = self._putters
        progressed = True
        while progressed:
            progressed = False
            # Admit queued putters while there is room.
            while putters and len(items) < self.capacity:
                item, event = putters.popleft()
                items.append(item)
                event.succeed()
                progressed = True
            # Serve getters in arrival order; a new deque only when
            # one of them stays queued.
            getters = self._getters
            if getters:
                remaining = None
                for getter in getters:
                    predicate = getter._predicate
                    served = False
                    if predicate is None:
                        if items:
                            getter.succeed(items.popleft())
                            served = True
                    else:
                        for index, item in enumerate(items):
                            if predicate(item):
                                del items[index]
                                getter.succeed(item)
                                served = True
                                break
                    if served:
                        progressed = True
                    elif remaining is None:
                        remaining = deque((getter,))
                    else:
                        remaining.append(getter)
                if remaining is None:
                    getters.clear()
                else:
                    self._getters = remaining
