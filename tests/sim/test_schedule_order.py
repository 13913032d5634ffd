"""The event kernel fires entries in ``(time, priority, schedule index)`` order.

``repro.sim.core.Environment`` promises exactly one thing about order:
entries leave the queue sorted by simulated time, then priority band
(``URGENT`` before ``NORMAL``), then the order they were scheduled in,
and a lazily-cancelled timer never fires.  These tests state that as a
reference interpreter — ``sorted(plan)`` minus the cancelled entries —
and hold the kernel's fire log against it over random schedules with
same-time ties, far-future stragglers, cancellations, callbacks that
schedule more work, and interrupts.
"""

import random

import pytest

from repro.sim import Environment, Interrupt
from repro.sim.core import NORMAL, URGENT


def random_schedule(seed, n):
    """A reproducible list of (delay, priority, cancel?) tuples.

    Delays are drawn from a few distinct regimes (clustered ties, dense
    uniform, sparse far-future) so the queue sees collisions, bursts
    and long-lived stragglers at once.
    """
    rng = random.Random(seed)
    plan = []
    for _ in range(n):
        regime = rng.random()
        if regime < 0.25:
            # clustered: many exact ties on a coarse grid
            delay = rng.randrange(20) * 0.5
        elif regime < 0.85:
            delay = rng.random() * 10.0
        else:
            delay = 100.0 + rng.random() * 1000.0
        priority = URGENT if rng.random() < 0.1 else NORMAL
        cancel = rng.random() < 0.15
        plan.append((delay, priority, cancel))
    return plan


def drive(plan):
    """Schedule ``plan`` at t=0 and run it: the fire log [(time, tag)].

    ``NORMAL`` entries are timeouts (cancelled before the run when the
    plan says so); ``URGENT`` entries are pre-triggered events pushed
    through the kernel's internal ``_enqueue`` — the only way to place
    an urgent entry at a future time — and are never cancelled.
    """
    env = Environment()
    log = []
    doomed = []
    for tag, (delay, priority, cancel) in enumerate(plan):
        if priority == NORMAL:
            event = env.timeout(delay)
            if cancel:
                doomed.append(event)
        else:
            event = env.event()
            event._ok = True
            event._value = None
            env._enqueue(event, URGENT, delay)
        event.callbacks.append(
            lambda _ev, tag=tag: log.append((env.now, tag)))
    for event in doomed:
        event.cancel()
    env.run()
    return log


def reference(plan):
    """What the kernel must produce, computed without a kernel."""
    live = [(delay, priority, tag)
            for tag, (delay, priority, cancel) in enumerate(plan)
            if not (cancel and priority == NORMAL)]
    return [(delay, tag) for delay, _priority, tag in sorted(live)]


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedules(self, seed):
        plan = random_schedule(seed, 2000)
        assert drive(plan) == reference(plan)

    def test_ten_thousand_entries(self):
        plan = random_schedule(99, 10_000)
        log = drive(plan)
        assert len(log) == sum(
            1 for _d, priority, cancel in plan
            if not (cancel and priority == NORMAL))
        assert log == reference(plan)

    def test_same_instant_entries_fire_in_schedule_order(self):
        env = Environment()
        log = []
        for tag in range(3000):
            env.timeout(1.0).callbacks.append(
                lambda _ev, tag=tag: log.append(tag))
        env.run()
        assert log == list(range(3000))

    def test_every_third_timer_cancelled(self):
        rng = random.Random(17)
        plan = [(rng.random() * 2.0, NORMAL, tag % 3 == 0)
                for tag in range(4000)]
        log = drive(plan)
        assert log == reference(plan)
        assert not any(tag % 3 == 0 for _t, tag in log)

    def test_callbacks_that_rearm_short_timers(self):
        """Entries scheduled from callbacks land among pending ones.

        The reference is built as the run goes: each callback records
        the ``(time, priority, schedule index)`` key of the timer it
        arms, so the full fire log must equal those keys sorted.
        """
        env = Environment()
        rng = random.Random(41)
        keys = []
        log = []

        def arm(delay, tag, depth):
            timer = env.timeout(delay)
            index = len(keys)
            keys.append((env.now + delay, NORMAL, index))

            def fired(_event):
                log.append((env.now, index, tag, depth))
                if depth:
                    arm(rng.random() * 0.01, tag, depth - 1)

            timer.callbacks.append(fired)

        for tag in range(1500):
            arm(rng.random() * 5.0, tag, 3)
        env.run()
        assert len(log) == 1500 * 4
        assert [(t, index) for t, index, _tag, _depth in log] == \
            [(t, index) for t, _priority, index in sorted(keys)]


class TestProcessesAndInterrupts:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_interrupt_storm(self, seed):
        """1 200 sleepers, every seventh interrupted 1 ms apart.

        An interrupted worker logs at its interrupt instant and again
        0.1 later; the others log once at their own wake time.  The
        instants are distinct, so time order alone fixes the log.
        """
        env = Environment()
        rng = random.Random(seed)
        sleeps = [rng.random() * 4.0 for _ in range(1200)]
        log = []

        def worker(tag):
            try:
                yield env.timeout(sleeps[tag])
                log.append(("done", tag, env.now))
            except Interrupt as exc:
                log.append(("intr", tag, env.now, exc.cause))
                yield env.timeout(0.1)
                log.append(("rejoin", tag, env.now))

        procs = [env.process(worker(tag)) for tag in range(1200)]
        struck = {}

        def interrupter():
            yield env.timeout(1.0)
            for tag, proc in enumerate(procs):
                if not proc.triggered and tag % 7 == 0:
                    proc.interrupt(cause=tag)
                    struck[tag] = env.now
                    yield env.timeout(0.001)

        env.process(interrupter())
        env.run()

        expected = []
        for tag, sleep in enumerate(sleeps):
            if tag in struck:
                expected.append((struck[tag], ("intr", tag, struck[tag], tag)))
                expected.append((struck[tag] + 0.1,
                                 ("rejoin", tag, struck[tag] + 0.1)))
            else:
                expected.append((sleep, ("done", tag, sleep)))
        assert struck
        assert all(tag % 7 == 0 and sleeps[tag] > 1.0 for tag in struck)
        assert log == [item for _t, item in sorted(expected)]


class TestPeekAndRunUntil:
    def test_peek_skips_cancelled_head_under_load(self):
        env = Environment()
        dead = env.timeout(1.0)
        env.timeout(2.0)
        for _ in range(2500):
            env.timeout(3.0)
        dead.cancel()
        assert env.peek() == 2.0
        env.run()
        assert env.now == 3.0

    def test_run_until_time_leaves_later_entries_pending(self):
        env = Environment()
        log = []
        for tag in range(3000):
            env.timeout(0.001 * tag).callbacks.append(
                lambda _ev, tag=tag: log.append(tag))
        env.run(until=1.0)
        assert env.now == 1.0
        early = len(log)
        assert 0 < early < 3000
        assert env.peek() > 1.0
        env.run()
        assert log == list(range(3000))

    def test_run_until_event_with_thousands_queued_behind(self):
        env = Environment()
        for _ in range(2500):
            env.timeout(5.0)

        def proc():
            yield env.timeout(1.5)
            return "stopped"

        assert env.run(until=env.process(proc())) == "stopped"
        assert env.now == 1.5
        assert env.peek() == 5.0
