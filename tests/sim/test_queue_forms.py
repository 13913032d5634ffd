"""The eventless queue forms are the evented ones minus the event.

``Container.try_get`` / ``try_put`` and ``Store.try_get`` / ``try_put``
take or give *now* and refuse, changing nothing, exactly when
``get`` / ``put`` would have queued; ``get`` / ``put`` are built on
them.  Hypothesis drives random interleavings of puts and gets —
predicates, bounded capacity, several getters queued at once, a tap —
through two copies of one schedule: one on the reference classes below
(``get`` / ``put`` / ``Store._drain`` as they were before the eventless
forms, each of which allocated a completed event and, for the store, a
fresh deque on every drain pass), one on the product classes, taking
each operation in its eventless form when the draw says so and falling
back to the evented call on a refusal.  Grant order, granted values,
every simulated instant and ``env._eid`` must match, and each refusal
must coincide with the reference call not completing inline.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Environment, Store
from repro.sim.core import Event, _completed_event
from repro.sim.resources import REFUSED, _StoreGet

INF = float("inf")
PREDICATES = (None, lambda x: x % 2 == 0, lambda x: x % 3 == 0,
              lambda x: x > 50)


class ReferenceStore(Store):
    """``Store.put`` / ``get`` / ``_drain`` before the eventless forms."""

    __slots__ = ()

    def put(self, item):
        tap = self._tap
        if tap is not None and tap[0](item):
            tap[1](item)
            return _completed_event(self.env, None)
        if not self._putters and len(self.items) < self.capacity:
            self.items.append(item)
            event = _completed_event(self.env, None)
            if self._getters:
                self._drain()
            return event
        event = Event(self.env)
        self._putters.append((item, event))
        self._drain()
        return event

    def get(self, predicate=None):
        items = self.items
        if items and not self._getters:
            if predicate is None:
                event = _completed_event(self.env, items.popleft())
                if self._putters:
                    self._drain()
                return event
            for index, candidate in enumerate(items):
                if predicate(candidate):
                    del items[index]
                    event = _completed_event(self.env, candidate)
                    if self._putters:
                        self._drain()
                    return event
        event = _StoreGet(self.env, predicate)
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self):
        items = self.items
        putters = self._putters
        progressed = True
        while progressed:
            progressed = False
            while putters and len(items) < self.capacity:
                item, event = putters.popleft()
                items.append(item)
                event.succeed()
                progressed = True
            getters = self._getters
            if getters:
                remaining = deque()
                for getter in getters:
                    predicate = getter._predicate
                    if predicate is None:
                        if items:
                            getter.succeed(items.popleft())
                            progressed = True
                        else:
                            remaining.append(getter)
                        continue
                    index = None
                    for i, candidate in enumerate(items):
                        if predicate(candidate):
                            index = i
                            break
                    if index is None:
                        remaining.append(getter)
                    else:
                        item = items[index]
                        del items[index]
                        getter.succeed(item)
                        progressed = True
                self._getters = remaining


class ReferenceContainer(Container):
    """``Container.get`` / ``put`` before the eventless forms."""

    __slots__ = ()

    def get(self, amount):
        if amount <= 0:
            raise ValueError("amount must be positive")
        if not self._getters and amount <= self._level:
            self._level -= amount
            event = _completed_event(self.env, amount)
            if self._putters:
                self._drain()
            return event
        event = Event(self.env)
        self._getters.append((amount, event))
        self._drain()
        return event

    def put(self, amount):
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError(
                f"put of {amount} exceeds capacity {self.capacity}")
        if not self._putters and self._level + amount <= self.capacity:
            self._level += amount
            event = _completed_event(self.env, None)
            if self._getters:
                self._drain()
            return event
        event = Event(self.env)
        self._putters.append((amount, event))
        self._drain()
        return event


class _Run:
    """One environment, one queue and the log of every completion."""

    def __init__(self, queue_type, *args, **kwargs):
        self.env = Environment()
        self.queue = queue_type(self.env, *args, **kwargs)
        self.log = []

    def settle(self, index, kind, event):
        """Log ``event``'s completion now if inline, else when it fires."""
        def record(fired):
            self.log.append((index, kind, self.env.now, fired._value))

        if event.callbacks is None:
            record(event)
        else:
            event.callbacks.append(record)
        return event.callbacks is None

    def granted(self, index, kind, value):
        self.log.append((index, kind, self.env.now, value))


_delays = st.sampled_from([0.0, 0.0, 0.0, 1e-6, 2.5e-6])


@settings(max_examples=150, deadline=None)
@given(capacity=st.sampled_from([1, 2, 3, INF]),
       tapped=st.booleans(),
       ops=st.lists(st.tuples(_delays,
                              st.sampled_from(["put", "get"]),
                              st.integers(0, 99),
                              st.integers(0, len(PREDICATES) - 1),
                              st.booleans()),
                    max_size=40))
def test_store_forms_match_the_evented_reference(capacity, tapped, ops):
    reference = _Run(ReferenceStore, capacity=capacity)
    product = _Run(Store, capacity=capacity)
    if tapped:
        for run in (reference, product):
            run.queue.set_tap(lambda x: x % 7 == 0,
                              lambda x, run=run: run.granted(-1, "tap", x))
    for index, (delay, kind, item, which, eventless) in enumerate(ops):
        for run in (reference, product):
            run.env.run(until=run.env.now + delay)
        predicate = PREDICATES[which]
        if kind == "put":
            inline = reference.settle(index, kind, reference.queue.put(item))
            if eventless:
                accepted = product.queue.try_put(item)
                assert accepted == inline
                if accepted:
                    product.granted(index, kind, None)
                else:
                    product.settle(index, kind, product.queue.put(item))
            else:
                assert product.settle(index, kind,
                                      product.queue.put(item)) == inline
        else:
            inline = reference.settle(index, kind,
                                      reference.queue.get(predicate))
            if eventless:
                value = product.queue.try_get(predicate)
                assert (value is not REFUSED) == inline
                if value is REFUSED:
                    product.settle(index, kind,
                                   product.queue.get(predicate))
                else:
                    product.granted(index, kind, value)
            else:
                assert product.settle(
                    index, kind, product.queue.get(predicate)) == inline
    for run in (reference, product):
        run.env.run()
    assert product.log == reference.log
    assert product.env._eid == reference.env._eid
    assert list(product.queue.items) == list(reference.queue.items)
    assert len(product.queue._getters) == len(reference.queue._getters)
    assert len(product.queue._putters) == len(reference.queue._putters)


@settings(max_examples=150, deadline=None)
@given(capacity=st.sampled_from([4, 10]),
       init=st.integers(0, 4),
       ops=st.lists(st.tuples(_delays,
                              st.sampled_from(["put", "get"]),
                              st.integers(1, 4),
                              st.booleans()),
                    max_size=40))
def test_container_forms_match_the_evented_reference(capacity, init, ops):
    reference = _Run(ReferenceContainer, capacity=capacity, init=init)
    product = _Run(Container, capacity=capacity, init=init)
    for index, (delay, kind, amount, eventless) in enumerate(ops):
        for run in (reference, product):
            run.env.run(until=run.env.now + delay)
        evented = getattr(reference.queue, kind)
        inline = reference.settle(index, kind, evented(amount))
        if eventless:
            done = getattr(product.queue, f"try_{kind}")(amount)
            assert done == inline
            if done:
                product.granted(index, kind,
                                amount if kind == "get" else None)
            else:
                product.settle(index, kind,
                               getattr(product.queue, kind)(amount))
        else:
            assert product.settle(
                index, kind, getattr(product.queue, kind)(amount)) == inline
        assert product.queue.level == reference.queue.level
    for run in (reference, product):
        run.env.run()
    assert product.log == reference.log
    assert product.env._eid == reference.env._eid
    assert product.queue.level == reference.queue.level


def test_a_refusal_changes_nothing():
    env = Environment()
    store = Store(env, capacity=1)
    store.put(2)
    assert store.try_put(4) is False                  # full
    assert store.try_get(lambda x: x > 50) is REFUSED  # no match
    assert list(store.items) == [2] and env._eid == 0
    waiting = store.get(lambda x: x > 50)
    assert store.try_get() is REFUSED                 # a getter is queued
    assert list(store.items) == [2] and not waiting.triggered

    tank = Container(env, capacity=4, init=1)
    assert tank.try_get(2) is False                   # too little
    assert tank.try_put(4) is False                   # too much
    assert tank.level == 1 and env._eid == 0
