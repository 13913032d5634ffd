"""Kernel fast-path invariants, on scenarios small enough to read.

The simulated side of three kernel stress patterns is deterministic,
so counts and end times are asserted exactly — a regression test for
the lazy-cancel / freelist machinery (a dead timer that leaked into
the clock would shift the end time, a lost interrupt would change the
count).  ``TestKernelLedger`` holds four small scenarios to the exact
scheduler ledger — entries (``env._eid``), timeout-pool hits and
misses, the end time — that the kernel produced before its hot events
were built inline, so a fast path that adds, drops, renumbers or
re-pools one entry fails here and not only in a hostbench digest.
Nothing here is timed: how fast the kernel runs on the host is
``hostbench``'s ``wall_s`` to judge.
"""

import ast
from pathlib import Path

import pytest

from repro.sim import (Environment, EventPopulation, Interrupt,
                       PriorityResource, Resource, Store)


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


def _ledger(env):
    return env._eid, env.pool_hits, env.pool_misses, repr(env.now)


class TestKernelLedger:
    def test_process_spawn_join_and_end(self):
        env = Environment()

        def child(i):
            yield env.timeout(1e-6 * (i % 3))
            yield env.timeout(2e-6)
            return i

        def parent():
            for _ in range(4):
                procs = [env.process(child(i)) for i in range(5)]
                values = yield env.all_of(procs)
                assert sorted(values.values()) == list(range(5))
                yield procs[0]          # already processed: inline
                yield env.timeout(1e-6)
            return "done"

        proc = env.process(parent())
        env.run()
        assert proc.value == "done"
        assert _ledger(env) == (90, 23, 21, "2e-05")

    def test_resource_and_store_contention(self):
        env = Environment()
        res = Resource(env, capacity=2)
        prio = PriorityResource(env, capacity=1)
        store = Store(env, capacity=2)
        got = []

        def user(i):
            with res.request() as req:
                yield req
                yield env.timeout(3e-6)
            with prio.request(priority=i % 3) as req:
                yield req
                yield env.timeout(1e-6)
            yield env.process(res.occupy(2e-6))

        def producer():
            for i in range(12):
                yield store.put(i)
                yield env.timeout(0.5e-6)

        def consumer(parity):
            for _ in range(6):
                got.append((yield store.get(lambda x: x % 2 == parity)))
                yield env.timeout(1.5e-6)

        for i in range(7):
            env.process(user(i))
        env.process(producer())
        env.process(consumer(0))
        env.process(consumer(1))
        env.run()
        assert sorted(got) == list(range(12))
        assert _ledger(env) == (98, 35, 10, "1.8e-05")
        assert (res.total_served, prio.total_served) == (14, 7)
        assert repr(res.busy_time()) == "3.5e-05"

    def test_interrupted_waits(self):
        env = Environment()
        caught = []

        def sleeper():
            for _ in range(3):
                try:
                    yield env.timeout(10.0)
                except Interrupt as exc:
                    caught.append(exc.cause)
                    yield env.timeout(1e-6)

        def waker(target):
            for i in range(3):
                yield env.timeout(2e-6)
                target.interrupt(cause=i)

        env.process(waker(env.process(sleeper())))
        env.run()
        assert caught == [0, 1, 2]
        # The last abandoned 10 s timer still fires; nobody resumes.
        assert _ledger(env) == (16, 4, 5, "10.000005")

    def test_event_population_with_ties(self):
        env = Environment()
        fired = []
        times = [0.0, 1e-6, 1e-6, 2.5e-6, 4e-6, 4e-6, 4e-6, 7e-6]

        def handler(i):
            fired.append(i)
            if i % 2:
                return None

            def work():
                yield env.timeout(1e-6)
            return work()

        population = EventPopulation(env, times, handler, name="ties")
        env.run(until=population)
        assert population.value == len(times)
        env.run()
        assert fired == list(range(len(times)))
        assert _ledger(env) == (18, 0, 4, "7e-06")


_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _clock_writes_and_private_reads(path):
    """``(line, what)`` for each ``<expr>.now = ...`` and each
    ``<expr>._now`` in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        targets = ()
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "now":
                found.append((node.lineno, "assigns .now"))
        if isinstance(node, ast.Attribute) and node.attr == "_now":
            found.append((node.lineno, "reads ._now"))
    return sorted(found)


def test_only_the_kernel_moves_the_clock():
    # ``Environment.now`` is a plain attribute: nothing outside the
    # kernel may write it, and there is no private twin to read.
    core = _SRC / "sim" / "core.py"
    found = [f"{path.relative_to(_SRC)}:{line} {what}"
             for path in sorted(_SRC.rglob("*.py"))
             for line, what in _clock_writes_and_private_reads(path)
             if path != core or what == "reads ._now"]
    assert not found, found


def test_the_clock_check_sees_a_write_and_a_private_read(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("env.now = 1.0\nenv.now += 2.0\nt = env._now\n"
                      "now = env.now\n")
    assert _clock_writes_and_private_reads(module) == [
        (1, "assigns .now"), (2, "assigns .now"), (3, "reads ._now")]
