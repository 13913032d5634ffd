"""Kernel fast-path invariants, on scenarios small enough to read.

The simulated side of three kernel stress patterns is deterministic,
so counts and end times are asserted exactly — a regression test for
the lazy-cancel / freelist machinery (a dead timer that leaked into
the clock would shift the end time, a lost interrupt would change the
count).  Nothing here is timed: how fast the kernel runs on the host
is ``hostbench``'s ``wall_s`` to judge.
"""

import pytest

from repro.sim import Environment, Interrupt


def _drain(n_events):
    """One process yielding ``n_events`` back-to-back 1 us timeouts."""
    env = Environment()

    def spin():
        for _ in range(n_events):
            yield env.timeout(1e-6)

    env.process(spin())
    env.run()
    return env


class TestEventThroughput:
    def test_simulated_side_is_exact(self):
        assert _drain(20_000).now == pytest.approx(20_000 * 1e-6)

    def test_timeout_freelist_recycles(self):
        # The drain's timeouts have no outside references, so the run
        # loop must be recycling them instead of allocating one object
        # per event: almost every allocation is served by the pool.
        env = _drain(20_000)
        assert env._timeout_pool, "freelist never captured a timeout"
        assert env.pool_hits / (env.pool_hits + env.pool_misses) >= 0.9


class TestTimeoutChurn:
    def test_cancelled_timers_do_not_perturb_end_time(self):
        # 20k timers armed for t=10 and cancelled immediately: if any
        # leaked, run() would advance the clock to 10; the live 1us
        # pacing timers put the true end at 20k * 1us.
        env = Environment()

        def churn():
            for _ in range(20_000):
                env.timeout(10.0).cancel()
                if env.peek() > 1.0:
                    # Nothing live pending: dead timers are invisible.
                    yield env.timeout(1e-6)

        env.process(churn())
        env.run()
        assert env.now == pytest.approx(20_000 * 1e-6)

    def test_peek_skips_tombstones(self):
        env = Environment()
        dead = env.timeout(5.0)
        live = env.timeout(9.0)
        dead.cancel()
        assert env.peek() == pytest.approx(9.0)
        env.run(until=live)
        assert env.now == pytest.approx(9.0)

    def test_run_until_not_perturbed_by_dead_events(self):
        env = Environment()
        env.timeout(2.0).cancel()
        env.run(until=1.0)
        assert env.now == pytest.approx(1.0)
        env.run()
        # Draining the tombstone must not advance the clock to 2.0.
        assert env.now == pytest.approx(1.0)


class TestInterruptStorm:
    def test_every_interrupt_is_delivered(self):
        env = Environment()
        caught = []

        def sleeper():
            while len(caught) < 5_000:
                try:
                    yield env.timeout(1000.0)  # interrupted long before
                    return
                except Interrupt as interrupt:
                    caught.append(interrupt.cause)

        def storm(target):
            for _ in range(5_000):
                yield env.timeout(1e-6)
                target.interrupt(cause="storm")

        env.process(storm(env.process(sleeper())))
        env.run()
        assert caught == ["storm"] * 5_000
