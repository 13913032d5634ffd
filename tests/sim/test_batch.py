"""Event-population batching must be invisible to results.

``EventPopulation`` replaces a generator arrival driver (one Timeout +
one process resume per arrival) with a precomputed time vector walked
by a single reusable tick.  These tests drive both forms over
identical schedules and require identical handler fire logs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, EventPopulation


def _poisson_times(seed, rate, duration):
    rng = random.Random(seed)
    times = []
    elapsed = 0.0
    while True:
        elapsed += rng.expovariate(rate)
        if elapsed >= duration:
            return times
        times.append(elapsed)


def _scalar_driver(env, times, handler):
    """The old per-arrival form: one timeout + one resume each."""
    def driver():
        for k, t in enumerate(times):
            delay = t - env.now
            if delay > 0:
                yield env.timeout(delay)
            work = handler(k)
            if work is not None:
                env.process(work)
    return env.process(driver())


class TestPopulationVsScalarIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_fire_logs_identical(self, seed):
        """Same times, same handlers -> same (time, k) log, 8 seeds."""
        times = _poisson_times(seed, rate=2000.0, duration=1.0)
        assert len(times) > 100

        def run(batched):
            env = Environment()
            log = []

            def handler(k):
                def work():
                    log.append((env.now, k))
                    yield env.timeout(0.001)
                    log.append((env.now, k, "done"))
                return work()

            if batched:
                pop = EventPopulation(env, times, handler)
                env.run()
                assert pop.fired == len(times)
            else:
                _scalar_driver(env, times, handler)
                env.run()
            return log

        assert run(batched=True) == run(batched=False)

    def test_same_instant_arrivals_batch_in_order(self):
        env = Environment()
        log = []
        times = [0.5] * 100 + [1.0] * 50
        EventPopulation(env, times, lambda k: log.append(k) or None)
        env.run()
        assert log == list(range(150))

    def test_inline_handler_needs_no_process(self):
        env = Environment()
        hits = []
        pop = EventPopulation(env, [0.1, 0.2], lambda k: hits.append(k) or None)
        env.run(until=pop)
        assert hits == [0, 1] and pop.value == 2

    def test_empty_population_succeeds_immediately(self):
        env = Environment()
        pop = EventPopulation(env, [], lambda k: None)
        assert pop.triggered and pop.value == 0

    def test_skip_to_consumes_without_firing(self):
        env = Environment()
        fired = []
        times = [0.1 * i for i in range(1, 11)]
        pop = EventPopulation(env, times, lambda k: fired.append(k) or None)

        def skipper():
            yield env.timeout(0.15)          # arrival 0 fired
            assert pop.skip_to(0.75) == 6    # skips 1..6 (t < 0.75)
            yield env.timeout(10.0)

        env.process(skipper())
        env.run()
        assert fired == [0, 7, 8, 9]
        assert pop.skipped == 6
        assert pop.fired + pop.skipped == pop.scheduled


class _LinearSkipPopulation(EventPopulation):
    """Oracle: ``skip_to`` as a linear ``while times[i] < t`` walk."""

    __slots__ = ()

    def skip_to(self, t):
        idx = i = self._idx
        while i < self._n and self._times_list[i] < t:
            i += 1
        self._idx = i
        return i - idx


def _run_skip_script(cls, times, script):
    """Interleave ``env.run`` and ``skip_to``; log everything seen."""
    env = Environment()
    fired = []
    pop = cls(env, times, lambda k: fired.append((env.now, k)) or None)
    log = []
    for dt, t in script:
        env.run(until=env.now + dt)      # leaves a tick in flight
        before = pop._idx
        skipped = pop.skip_to(t)
        assert skipped >= 0 and pop._idx == before + skipped
        log.append((env.now, skipped, pop.fired, pop.remaining))
    env.run()
    assert pop.fired + pop.skipped == pop.scheduled
    assert pop.triggered and pop.value == pop.fired == len(fired)
    return fired, log


# a coarse grid, so ties between arrivals and with ``t`` are common
_grid = st.integers(min_value=0, max_value=40).map(lambda q: q / 4.0)


class TestSkipToMatchesLinearOracle:
    @given(times=st.lists(_grid, max_size=40).map(sorted),
           script=st.lists(st.tuples(_grid, _grid), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_script_of_rising_and_falling_targets(self, times, script):
        """bisect ``skip_to`` == the linear walk, cursor never retreats."""
        assert (_run_skip_script(EventPopulation, times, script)
                == _run_skip_script(_LinearSkipPopulation, times, script))

    def test_times_is_a_list_of_floats(self):
        pop = EventPopulation(Environment(), [1, 2, 3], lambda k: None)
        assert type(pop.times) is list
        assert all(type(t) is float for t in pop.times)

    def test_any_iterable_of_times_fires_identically(self):
        times = [0.25, 0.5, 0.5, 2.0]

        def fire_log(arrivals):
            env = Environment()
            log = []
            EventPopulation(env, arrivals,
                            lambda k: log.append((env.now, k)) or None)
            env.run()
            return log

        expected = fire_log(times)
        assert [k for _, k in expected] == [0, 1, 2, 3]
        assert fire_log(tuple(times)) == expected
        assert fire_log(t for t in times) == expected

    def test_ndarray_of_times_fires_identically(self):
        np = pytest.importorskip("numpy")
        times = [0.25, 0.5, 0.5, 2.0]
        env = Environment()
        log = []
        pop = EventPopulation(env, np.asarray(times),
                              lambda k: log.append((env.now, k)) or None)
        env.run()
        assert log == list(zip(times, range(4)))
        assert type(pop.times) is list and type(pop.times[0]) is float

