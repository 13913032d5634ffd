"""Unit tests for Resource / PriorityResource / Container / Store."""

import random

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_grants_up_to_capacity_immediately(self, env):
        res = Resource(env, capacity=2)
        granted = []

        def user(env, tag):
            with res.request() as req:
                yield req
                granted.append((tag, env.now))
                yield env.timeout(1.0)

        for tag in range(3):
            env.process(user(env, tag))
        env.run()
        # Two start at t=0, the third once a slot frees at t=1.
        assert granted == [(0, 0.0), (1, 0.0), (2, 1.0)]

    def test_fifo_queue_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(env, tag, start):
            yield env.timeout(start)
            with res.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(10.0)

        env.process(user(env, "first", 0.0))
        env.process(user(env, "second", 1.0))
        env.process(user(env, "third", 2.0))
        env.run()
        assert order == ["first", "second", "third"]

    def test_utilization_measures_busy_slots(self, env):
        res = Resource(env, capacity=2)

        def user(env):
            with res.request() as req:
                yield req
                yield env.timeout(4.0)

        env.process(user(env))
        env.run(until=8.0)
        # One slot busy for 4s out of 8s elapsed -> 0.5 average busy slots.
        assert res.busy_time() / env.now == pytest.approx(0.5)

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10.0)

        def impatient(env, log):
            req = res.request()
            deadline = env.timeout(2.0)
            yield env.any_of([req, deadline])
            if not req.triggered:
                log.append("gave up")
            res.release(req)        # withdraws a claim not yet granted

        log = []
        env.process(holder(env))
        env.process(impatient(env, log))
        env.run()
        assert log == ["gave up"]
        assert res.queue_length == 0

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_total_served_counts_grants(self, env):
        res = Resource(env, capacity=1)

        def user(env):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

        for _ in range(5):
            env.process(user(env))
        env.run()
        assert res.total_served == 5


def _occupancy_schedule(seed, n=120):
    """Seeded (arrival, duration) jobs: bursts, lulls, short and long."""
    rng = random.Random(seed)
    jobs = []
    at = 0.0
    for _ in range(n):
        at += rng.choice((0.0, 0.0, rng.random() * 0.2, rng.random() * 3.0))
        jobs.append((at, rng.choice((0.05, 0.4, 1.0)) * (0.5 + rng.random())))
    return jobs


def _drive_occupancy(mode, jobs, capacity):
    """Run ``jobs`` on one Resource, each occupying a slot its own way.

    ``mode`` picks how an arriving job takes its slot: ``"evented"`` is
    request + timeout + release; ``"hold"`` and ``"reserve"`` try the
    eventless claim first and fall back to the evented path when it is
    refused, which is how every caller in ``repro.hardware`` uses them.
    Returns ``(grants, busy_time, total_served)`` at a common horizon;
    ``grants`` is ``[(tag, grant instant)]`` in grant order.
    """
    env = Environment()
    res = Resource(env, capacity=capacity)
    grants = []
    reserved = []   # expiry instants of accepted reserve() calls

    def job(tag, at, duration):
        yield env.timeout(at)
        if mode == "hold":
            hold = res.hold(duration)
            if hold is not None:
                grants.append((tag, env.now))
                yield hold
                return
        elif mode == "reserve":
            queued = res.queue_length > 0
            ok = res.reserve(duration)
            live = sum(1 for expiry in reserved if expiry > env.now)
            assert res.count + live + ok <= capacity
            assert not (ok and queued)
            if ok:
                reserved.append(env.now + duration)
                grants.append((tag, env.now))
                return
        with res.request() as req:
            yield req
            grants.append((tag, env.now))
            yield env.timeout(duration)

    for tag, (at, duration) in enumerate(jobs):
        env.process(job(tag, at, duration))
    env.run(until=jobs[-1][0] + 10.0 * len(jobs))
    assert res.count == 0 and res.queue_length == 0
    return grants, res.busy_time(), res.total_served


class TestEventlessOccupancy:
    """``hold`` / ``reserve`` / ``try_acquire`` / ``unhold`` against the
    evented ``request()`` path they stand in for."""

    @pytest.mark.parametrize("capacity", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_three_ways_agree(self, seed, capacity):
        jobs = _occupancy_schedule(seed)
        ev_grants, ev_busy, ev_served = _drive_occupancy(
            "evented", jobs, capacity)
        hold_grants, hold_busy, hold_served = _drive_occupancy(
            "hold", jobs, capacity)
        _res_grants, res_busy, res_served = _drive_occupancy(
            "reserve", jobs, capacity)
        assert len(ev_grants) == len(jobs)
        # the schedule must contend, or the fallbacks were never taken
        assert any(at != jobs[tag][0] for tag, at in ev_grants)
        assert hold_grants == ev_grants
        assert ev_served == hold_served == res_served == len(jobs)
        assert hold_busy == pytest.approx(ev_busy, abs=1e-9)
        assert res_busy == pytest.approx(ev_busy, abs=1e-9)
        assert ev_busy == pytest.approx(
            sum(duration for _at, duration in jobs), abs=1e-9)

    def test_reserve_occupies_until_expiry_without_events(self, env):
        res = Resource(env, capacity=2)
        assert res.reserve(1.0)
        assert res.reserve(3.0)
        assert not res.reserve(1.0)          # full
        assert env.peek() == float("inf")    # and nothing was scheduled
        env.run(until=2.0)
        assert res.reserve(1.0)              # the 1 s slot came back
        env.run(until=10.0)
        assert res.busy_time() == pytest.approx(5.0)
        assert res.total_served == 3

    def test_reserve_refused_while_anyone_is_queued(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        waiter = res.request()
        assert first.callbacks is None and not waiter.triggered
        res.release(first)
        # the slot is the waiter's, granted but not yet processed
        assert not res.reserve(1.0)
        assert res.hold(1.0) is None
        assert res.try_acquire() is None
        env.run()
        assert waiter.callbacks is None

    def test_unhold_at_the_same_instant_restores_the_resource(self, env):
        res = Resource(env, capacity=2)
        assert res.reserve(2.0)
        env.run(until=1.0)
        before = (res.busy_time(), res.total_served, res.count)
        hold = res.hold(5.0)
        assert res.count == 1 and res.total_served == before[1] + 1
        res.unhold(hold)
        assert (res.busy_time(), res.total_served, res.count) == before
        env.run()
        # the cancelled hold neither fired nor moved the clock
        assert env.now == 1.0
        env.run(until=3.0)
        assert res.busy_time() == pytest.approx(2.0)

    def test_try_acquire_token_occupies_and_releases(self, env):
        res = Resource(env, capacity=1)
        token = res.try_acquire()
        assert token is not None and res.count == 1
        assert res.try_acquire() is None     # full
        waiter = res.request()
        env.run(until=2.0)
        assert not waiter.triggered
        res.release(token)
        assert res.try_acquire() is None     # free slot, but one queued
        env.run(until=3.0)
        assert waiter.callbacks is None and res.count == 1
        res.release(waiter)
        assert res.busy_time() == pytest.approx(3.0)
        assert res.total_served == 2

    @pytest.mark.xfail(
        strict=True,
        reason="stale reservation wake: Resource._arm_res_wake returns "
               "early while a wake timer is pending, but that timer may "
               "be left over from a waiter since granted by an ordinary "
               "release and aimed at what was the earliest expiry, so B "
               "is granted at 10.0 instead of 4.0.  The fix (remember the "
               "armed deadline, re-aim when the heap head is earlier) "
               "re-aims 12 timers on hostbench dds_serving "
               "(sim.core.entries 417475 -> 417487, digest_pinned fails) "
               "and has to land with hostbench v2, which un-pins work "
               "counts; that change makes this pass and deletes this "
               "marker (docs/ROBUSTNESS.md)")
    def test_waiter_behind_a_later_shorter_reservation_wakes_on_time(
            self, env):
        res = Resource(env, capacity=2)
        granted = {}

        def user(tag, at, duration):
            yield env.timeout(at)
            with res.request() as req:
                yield req
                granted[tag] = env.now
                yield env.timeout(duration)

        def reserver():
            assert res.reserve(10.0)         # slot 1 until t=10
            yield env.timeout(3.0)
            assert res.reserve(1.0)          # slot 2 until t=4

        env.process(reserver())
        env.process(user("user", 0.0, 1.0))  # slot 2 until t=1
        env.process(user("A", 0.1, 1.0))     # queues; wake armed for t=10
        env.process(user("B", 3.5, 1.0))     # queues; no wake armed
        env.run()
        assert granted["A"] == 1.0           # by the release, not the wake
        assert granted["B"] == 4.0           # what the evented schedule does


class TestPriorityResource:
    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_fused_paths_decline_while_a_waiter_is_queued(self, env,
                                                          kind):
        # A free slot and a queued waiter coexist between a
        # reservation's expiry and the wake timer armed for it; the
        # probe, scheduled first, stops the clock in that gap.
        res = kind(env, capacity=1)
        probe = env.timeout(1.0)
        assert res.reserve(1.0)
        waiter = res.request()
        env.run(until=probe)
        assert res.busy_time() == pytest.approx(1.0)
        assert res.count == 0 and not waiter.triggered
        assert res.hold(1.0) is None
        assert not res.reserve(1.0)
        assert res.try_acquire() is None
        env.run()
        assert waiter.triggered and env.now == 1.0

    def test_lower_priority_number_served_first(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5.0)

        def user(env, tag, priority):
            yield env.timeout(1.0)   # arrive while holder occupies slot
            with res.request(priority=priority) as req:
                yield req
                order.append(tag)
                yield env.timeout(1.0)

        env.process(holder(env))
        env.process(user(env, "low-urgency", 10))
        env.process(user(env, "high-urgency", 0))
        env.run()
        assert order == ["high-urgency", "low-urgency"]

    def test_ties_break_fifo(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5.0)

        def user(env, tag, arrive):
            yield env.timeout(arrive)
            with res.request(priority=1) as req:
                yield req
                order.append(tag)
                yield env.timeout(1.0)

        env.process(holder(env))
        env.process(user(env, "a", 1.0))
        env.process(user(env, "b", 2.0))
        env.run()
        assert order == ["a", "b"]

    def test_cancelled_priority_request_is_skipped(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5.0)

        def quitter(env):
            req = res.request(priority=0)
            yield env.timeout(1.0)
            res.release(req)

        def patient(env):
            with res.request(priority=5) as req:
                yield req
                order.append("patient")

        env.process(holder(env))
        env.process(quitter(env))
        env.process(patient(env))
        env.run()
        assert order == ["patient"]


class TestContainer:
    def test_get_blocks_until_put(self, env):
        tank = Container(env, capacity=100, init=0)

        def producer(env):
            yield env.timeout(2.0)
            yield tank.put(10)

        def consumer(env):
            yield tank.get(10)
            return env.now

        env.process(producer(env))
        proc = env.process(consumer(env))
        assert env.run(until=proc) == 2.0

    def test_put_blocks_at_capacity(self, env):
        tank = Container(env, capacity=10, init=10)

        def producer(env):
            yield tank.put(5)
            return env.now

        def consumer(env):
            yield env.timeout(3.0)
            yield tank.get(5)

        proc = env.process(producer(env))
        env.process(consumer(env))
        assert env.run(until=proc) == 3.0

    def test_level_tracks_balance(self, env):
        tank = Container(env, capacity=100, init=50)

        def mover(env):
            yield tank.get(20)
            yield tank.put(5)

        env.process(mover(env))
        env.run()
        assert tank.level == 35

    def test_validation(self, env):
        with pytest.raises(ValueError):
            Container(env, capacity=0)
        with pytest.raises(ValueError):
            Container(env, capacity=10, init=20)
        tank = Container(env, capacity=10)
        with pytest.raises(ValueError):
            tank.get(0)
        with pytest.raises(ValueError):
            tank.put(11)


class TestStore:
    def test_fifo_delivery(self, env):
        store = Store(env)
        received = []

        def producer(env):
            for item in ("x", "y", "z"):
                yield store.put(item)
                yield env.timeout(1.0)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == ["x", "y", "z"]

    def test_capacity_backpressure(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            times.append(env.now)
            yield store.put("b")   # blocks until "a" is taken
            times.append(env.now)

        def consumer(env):
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0.0, 5.0]

    def test_filtered_get_skips_non_matching(self, env):
        store = Store(env)
        got = []

        def producer(env):
            yield store.put({"kind": "data", "id": 1})
            yield store.put({"kind": "control", "id": 2})

        def control_consumer(env):
            item = yield store.get(lambda m: m["kind"] == "control")
            got.append(item["id"])

        env.process(producer(env))
        env.process(control_consumer(env))
        env.run()
        assert got == [2]
        assert [m["id"] for m in store.items] == [1]

    def test_get_before_put_blocks(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(4.0)
            yield store.put("late")

        proc = env.process(consumer(env))
        env.process(producer(env))
        assert env.run(until=proc) == (4.0, "late")
