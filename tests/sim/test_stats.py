"""Edge cases for the measurement collectors in ``repro.sim.stats``."""

import random

import pytest

from repro.sim.stats import Counter, Tally, TimeWeighted


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c")
        counter.add(3)
        counter.add(0)
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.add(-1)


class TestTallyEdgeCases:
    def test_empty_tally_percentiles_are_zero(self):
        tally = Tally("empty")
        assert tally.p50 == 0.0
        assert tally.p99 == 0.0
        assert tally.p999 == 0.0
        assert tally.mean == 0.0

    def test_single_sample(self):
        tally = Tally("t")
        tally.observe(7.0)
        assert tally.p50 == 7.0
        assert tally.p99 == 7.0


class TestTallyReservoir:
    def test_default_keeps_every_sample(self):
        tally = Tally("t")
        for i in range(1000):
            tally.observe(float(i))
        assert tally.count == 1000
        # Unbounded: percentiles are exact.
        assert tally.p50 == pytest.approx(499.5)

    def test_reservoir_bounds_memory_exact_moments(self):
        tally = Tally("t", max_samples=64)
        values = [random.Random(7).uniform(0, 100) for _ in range(5000)]
        for value in values:
            tally.observe(value)
        assert len(tally._samples) == 64
        # Count and mean stay exact under sampling.
        assert tally.count == 5000
        assert tally.mean == pytest.approx(sum(values) / 5000)
        # Percentiles come from the reservoir: plausible, not exact.
        assert 0 <= tally.p50 <= 100

    def test_reservoir_is_deterministic(self):
        def build():
            tally = Tally("t", max_samples=16)
            for i in range(500):
                tally.observe(float(i % 97))
            return tally

        first, second = build(), build()
        assert first._samples == second._samples
        assert first.p99 == second.p99

    def test_reservoir_under_capacity_is_exact(self):
        tally = Tally("t", max_samples=100)
        for i in range(10):
            tally.observe(float(i))
        assert sorted(tally._samples) == [float(i) for i in range(10)]
        assert tally.p50 == pytest.approx(4.5)

    def test_invalid_max_samples(self):
        with pytest.raises(ValueError):
            Tally("t", max_samples=0)


class TestTimeWeighted:
    def test_zero_elapsed_returns_current_level(self):
        level = TimeWeighted("l", initial=3.0, start_time=5.0)
        assert level.average(5.0) == 3.0
        assert level.average(4.0) == 3.0    # now < start: no window

    def test_average_integrates(self):
        level = TimeWeighted("l")
        level.set(2.0, 1.0)
        level.set(0.0, 3.0)
        assert level.average(4.0) == pytest.approx(1.0)
        assert level.peak == 2.0

    def test_time_backwards_rejected(self):
        level = TimeWeighted("l")
        level.set(1.0, 2.0)
        with pytest.raises(ValueError):
            level.set(0.0, 1.0)
