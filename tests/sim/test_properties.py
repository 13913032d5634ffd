"""Property-based tests of the simulation kernel's invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store
from repro.sim.core import NORMAL, URGENT


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False),
                       min_size=1, max_size=40))
def test_property_events_fire_in_time_order(delays):
    """Completions observe non-decreasing simulated time."""
    env = Environment()
    observed = []

    def sleeper(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(sleeper(delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert env.now == max(delays)


@settings(max_examples=100, deadline=None)
@given(plan=st.lists(
    st.tuples(st.one_of(st.floats(min_value=0.0, max_value=100.0),
                        st.sampled_from([0.0, 0.5, 1.0, 100.0])),
              st.sampled_from([URGENT, NORMAL]),
              st.booleans()),
    max_size=60))
def test_property_fire_order_is_time_priority_schedule_index(plan):
    """The fire log is ``sorted(plan)`` minus the cancelled entries."""
    env = Environment()
    fired = []
    doomed = []
    for index, (delay, priority, cancel) in enumerate(plan):
        if priority == NORMAL:
            event = env.timeout(delay)
        else:
            # the only way to put an urgent entry at a future time
            event = env.event()
            event._ok = True
            event._value = None
            env._enqueue(event, URGENT, delay)
        event.callbacks.append(
            lambda _ev, index=index: fired.append((env.now, index)))
        if cancel and priority == NORMAL:
            doomed.append(event)
    for event in doomed:
        event.cancel()
    env.run()
    live = sorted((delay, priority, index)
                  for index, (delay, priority, cancel) in enumerate(plan)
                  if not (cancel and priority == NORMAL))
    assert fired == [(delay, index) for delay, _priority, index in live]
    assert env.now == (live[-1][0] if live else 0.0)
    assert env.peek() == float("inf")


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.01, max_value=10.0,
                                 allow_nan=False),
                       min_size=1, max_size=20),
       capacity=st.integers(min_value=1, max_value=5))
def test_property_resource_conserves_work(delays, capacity):
    """Total busy time equals total service demand; makespan is
    bounded by the list-scheduling bounds."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def job(duration):
        with resource.request() as request:
            yield request
            yield env.timeout(duration)

    for delay in delays:
        env.process(job(delay))
    env.run()
    total = sum(delays)
    assert resource.busy_time() == pytest_approx(total)
    # Lower bound: perfect parallel speedup; upper: serial.
    assert env.now >= total / capacity - 1e-9
    assert env.now <= total + 1e-9
    assert resource.count == 0          # everything released


@settings(max_examples=40, deadline=None)
@given(items=st.lists(st.integers(), min_size=0, max_size=50),
       capacity=st.integers(min_value=1, max_value=8))
def test_property_store_is_fifo_lossless(items, capacity):
    """Everything put into a bounded store comes out once, in order."""
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


@settings(max_examples=40, deadline=None)
@given(priorities=st.lists(st.integers(min_value=0, max_value=9),
                           min_size=2, max_size=30))
def test_property_priority_resource_orders_waiters(priorities):
    """Waiters are served in (priority, arrival) order."""
    from repro.sim import PriorityResource

    env = Environment()
    resource = PriorityResource(env, capacity=1)
    served = []

    def holder():
        with resource.request(priority=-1) as request:
            yield request
            yield env.timeout(10.0)     # everyone queues behind this

    def waiter(index, priority):
        with resource.request(priority=priority) as request:
            yield request
            served.append((priority, index))

    env.process(holder())

    def submit_all():
        yield env.timeout(1.0)
        for index, priority in enumerate(priorities):
            env.process(waiter(index, priority))

    env.process(submit_all())
    env.run()
    expected = sorted(
        [(priority, index)
         for index, priority in enumerate(priorities)]
    )
    assert served == expected


def pytest_approx(value, rel=1e-9):
    import pytest
    return pytest.approx(value, rel=rel, abs=1e-9)
