"""Arrival-process tests: counting contract, shapes, determinism."""

import pytest

from repro.sim import Environment
from repro.workloads import (
    ParetoSizes,
    TenantMix,
    arrival_count,
    flash_crowd,
    mmpp_arrivals,
    open_loop,
    poisson_arrivals,
)


def _collect(driver_factory):
    """Run a driver to completion; return the fired indices."""
    env = Environment()
    fired = []

    def handler(i):
        fired.append(i)
        return None

    driver_factory(env, handler)
    env.run()
    return fired


class TestArrivalCount:
    def test_float_dust_does_not_drop_final_arrival(self):
        # 100 * 0.29 == 28.999999999999996 in binary; a bare int()
        # fires 28 requests and silently loses the last one.
        assert int(100 * 0.29) == 28  # the bug being guarded against
        assert arrival_count(100.0, 0.29) == 29

    def test_exact_products_unchanged(self):
        assert arrival_count(120_000.0, 5e-3) == 600
        assert arrival_count(80_000.0, 12e-3) == 960
        assert arrival_count(3.0, 0.5) == 1

    def test_floor_not_round(self):
        # The contract floors: one arrival per full inter-arrival
        # interval that fits in the duration.
        assert arrival_count(3.0, 0.55) == 1
        assert arrival_count(3.0, 0.7) == 2

    @pytest.mark.parametrize("rate,duration,expected", [
        (100.0, 0.29, 29), (7.0, 1.3, 9), (1000.0, 0.123, 123),
        (3.0, 0.7, 2), (0.1, 30.0, 3),
    ])
    def test_floor_of_decimal_product(self, rate, duration, expected):
        # Products that are exact in decimal must floor to the
        # decimal value despite binary representation dust.
        assert arrival_count(rate, duration) == expected


class TestOpenLoop:
    def test_fires_floor_of_product(self):
        fired = _collect(lambda env, h: open_loop(env, 100.0, h, 0.29))
        assert fired == list(range(29))

    def test_spacing_is_uniform(self):
        env = Environment()
        times = []
        open_loop(env, 10.0, lambda i: times.append(env.now), 0.5)
        env.run()
        assert times == pytest.approx([i / 10.0 for i in range(5)])

    def test_rejects_bad_args(self):
        env = Environment()
        with pytest.raises(ValueError):
            open_loop(env, 0.0, lambda i: None, 1.0)
        with pytest.raises(ValueError):
            open_loop(env, 10.0, lambda i: None, 0.0)


class TestPoisson:
    def test_deterministic_per_seed(self):
        a = _collect(lambda env, h: poisson_arrivals(env, 500.0, h,
                                                     0.1, seed=3))
        b = _collect(lambda env, h: poisson_arrivals(env, 500.0, h,
                                                     0.1, seed=3))
        assert a == b
        c = _collect(lambda env, h: poisson_arrivals(env, 500.0, h,
                                                     0.1, seed=4))
        assert a != c

    def test_mean_rate(self):
        fired = _collect(lambda env, h: poisson_arrivals(
            env, 1000.0, h, 1.0, seed=1))
        assert 900 < len(fired) < 1100


class TestMmpp:
    def test_deterministic_per_seed(self):
        shape = lambda s: (lambda env, h: mmpp_arrivals(
            env, h, 10e-3, rates=(20_000.0, 200_000.0),
            dwell_s=(2e-3, 5e-4), seed=s))
        assert _collect(shape(5)) == _collect(shape(5))
        assert _collect(shape(5)) != _collect(shape(6))

    def test_burstier_than_poisson(self):
        # Index-of-dispersion of per-bin counts: Poisson ~1, MMPP > 1.
        def dispersion(factory):
            env = Environment()
            times = []
            factory(env, lambda i: times.append(env.now))
            env.run()
            bins = [0] * 50
            for t in times:
                bins[min(int(t / (20e-3 / 50)), 49)] += 1
            mean = sum(bins) / len(bins)
            var = sum((b - mean) ** 2 for b in bins) / len(bins)
            return var / mean

        mmpp = dispersion(lambda env, h: mmpp_arrivals(
            env, h, 20e-3, rates=(10_000.0, 400_000.0),
            dwell_s=(3e-3, 1e-3), seed=2))
        poisson = dispersion(lambda env, h: poisson_arrivals(
            env, 120_000.0, h, 20e-3, seed=2))
        assert mmpp > 2.0 * poisson

    def test_rejects_mismatched_states(self):
        env = Environment()
        with pytest.raises(ValueError):
            mmpp_arrivals(env, lambda i: None, 1e-3,
                          rates=(1.0,), dwell_s=(1e-3, 1e-3))


class TestFlashCrowd:
    def test_surge_window_is_hotter(self):
        env = Environment()
        times = []
        flash_crowd(env, lambda i: times.append(env.now),
                    duration_s=30e-3, base_rate=20_000.0,
                    peak_rate=200_000.0, surge_start_s=10e-3,
                    surge_s=10e-3, seed=9)
        env.run()
        before = sum(1 for t in times if t < 10e-3)
        during = sum(1 for t in times if 10e-3 <= t < 20e-3)
        assert during > 5 * before

    def test_deterministic_per_seed(self):
        shape = lambda s: (lambda env, h: flash_crowd(
            env, h, 10e-3, 30_000.0, 120_000.0, 3e-3, 4e-3, seed=s))
        assert _collect(shape(1)) == _collect(shape(1))

    def test_rejects_inverted_rates(self):
        env = Environment()
        with pytest.raises(ValueError):
            flash_crowd(env, lambda i: None, 1.0, 100.0, 50.0,
                        0.1, 0.1)


class TestParetoSizes:
    def test_pure_in_seed_and_index(self):
        sizes = ParetoSizes(seed=4)
        assert [sizes.size(i) for i in range(64)] \
            == [ParetoSizes(seed=4).size(i) for i in range(64)]
        assert sizes.size(7) != ParetoSizes(seed=5).size(7) \
            or sizes.size(8) != ParetoSizes(seed=5).size(8)

    def test_bounds_and_alignment(self):
        sizes = ParetoSizes(min_size=512, max_size=65_536)
        for i in range(512):
            size = sizes.size(i)
            assert 512 <= size <= 65_536
            assert size % 64 == 0

    def test_heavy_tail(self):
        sizes = ParetoSizes(alpha=1.2, min_size=512,
                            max_size=1_048_576, seed=0)
        sample = [sizes.size(i) for i in range(4096)]
        mean = sum(sample) / len(sample)
        sample.sort()
        median = sample[len(sample) // 2]
        assert mean > 1.5 * median  # tail pulls the mean well up

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ParetoSizes(alpha=0.0)
        with pytest.raises(ValueError):
            ParetoSizes(min_size=0)


class TestTenantMix:
    def test_pure_and_weighted(self):
        mix = TenantMix({"free": 6.0, "pro": 3.0, "whale": 1.0},
                        seed=2)
        picks = [mix.tenant(i) for i in range(6000)]
        assert picks == [mix.tenant(i) for i in range(6000)]
        counts = {name: picks.count(name) for name in mix.names}
        assert counts["free"] > counts["pro"] > counts["whale"]
        assert counts["whale"] > 0

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            TenantMix({})
        with pytest.raises(ValueError):
            TenantMix({"a": 0.0})
