"""Event-population batching must be invisible to results.

``EventPopulation`` replaces a generator arrival driver (one Timeout +
one process resume per arrival) with a precomputed time vector walked
by a single reusable tick.  These tests drive both forms over
identical schedules and require identical handler fire logs.
"""

import random

import pytest
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
                assert pop.value == len(times)
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


class TestTimesFromAnyIterable:
    def test_times_is_a_list_of_floats(self):
        pop = EventPopulation(Environment(), [1, 2, 3], lambda k: None)
        assert type(pop._times_list) is list
        assert all(type(t) is float for t in pop._times_list)

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
        assert type(pop._times_list) is list \
            and type(pop._times_list[0]) is float

