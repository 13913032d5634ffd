"""Queueing theory as the oracle: the resource primitives against
closed forms, not against an older path of the same simulator.

Seeded Poisson arrivals (``workloads.arrivals.poisson_arrivals``) feed
a ``Resource`` or ``PriorityResource`` through each of the three ways
the product occupies a slot — the evented ``request``, the fused
``hold`` and the eventless ``reserve``, the last two falling back to
``request`` when they decline, exactly as ``CpuCluster`` uses them.
Utilisation, mean wait and the time-averaged queue length are held to
M/D/1 (Pollaczek-Khinchine), M/M/c (Erlang C) and Little's law within
a confidence interval over ``SEEDS`` independent runs.  stdlib only.
"""

import math
import random
import statistics

import pytest

from repro.sim import Environment, PriorityResource, Resource
from repro.workloads.arrivals import open_loop, poisson_arrivals

SEEDS = range(6)
CUSTOMERS = 2_500           # expected arrivals per run
PATHS = ("request", "hold", "reserve")


def _run(kind, capacity, path, rate, draw_service, seed):
    """One run: per-customer ``(arrived, started)`` in grant order,
    plus the measured utilisation, queue-length average and rate."""
    env = Environment()
    res = kind(env, capacity=capacity)
    rng = random.Random(1_000 + seed)
    horizon = CUSTOMERS / rate
    arrivals, grants, queue_samples = [], [], []

    def arrive(i):
        arrived, service = env.now, draw_service(rng)
        arrivals.append(arrived)
        if path == "hold" and res.hold(service) is not None \
                or path == "reserve" and res.reserve(service):
            grants.append((i, arrived, arrived))
            return None

        def queued():
            with res.request() as req:
                yield req
                grants.append((i, arrived, env.now))
                yield env.timeout(service)

        return queued()

    poisson_arrivals(env, rate, arrive, horizon, seed=seed)
    open_loop(env, 20 * rate,
              lambda _i: queue_samples.append(res.queue_length), horizon)
    env.run(until=horizon)
    return {
        "grants": grants,
        "utilisation": res.busy_time() / horizon / capacity,
        "mean_wait": statistics.fmean(
            started - arrived for _i, arrived, started in grants),
        "mean_queue": statistics.fmean(queue_samples),
        "rate": len(arrivals) / horizon,
    }


def _interval(values):
    """``(mean, half-width)``: three standard errors over the seeds."""
    return (statistics.fmean(values),
            3.0 * statistics.stdev(values) / math.sqrt(len(values)))


def _assert_matches(runs, rho, wait):
    utilisation, u_half = _interval([run["utilisation"] for run in runs])
    assert abs(utilisation - rho) <= u_half + 0.01 * rho
    mean_wait, w_half = _interval([run["mean_wait"] for run in runs])
    assert abs(mean_wait - wait) <= w_half + 0.02 * wait
    for run in runs:    # Little: L_q = lambda * W_q, run by run
        assert run["mean_queue"] == pytest.approx(
            run["rate"] * run["mean_wait"], rel=0.01)


def _erlang_c_wait(rate, mu, servers):
    """Mean queueing delay of M/M/c."""
    load = rate / mu
    rho = load / servers
    tail = load ** servers / math.factorial(servers) / (1.0 - rho)
    waiting = tail / (sum(load ** k / math.factorial(k)
                          for k in range(servers)) + tail)
    return waiting / (servers * mu - rate)


@pytest.mark.parametrize("kind", [Resource, PriorityResource])
@pytest.mark.parametrize("path", PATHS)
def test_m_d_1_matches_pollaczek_khinchine(kind, path):
    rate, service = 700.0, 1.0e-3
    rho = rate * service
    runs = [_run(kind, 1, path, rate, lambda _rng: service, seed)
            for seed in SEEDS]
    _assert_matches(runs, rho, rho * service / (2.0 * (1.0 - rho)))


@pytest.mark.parametrize("path", PATHS)
def test_m_m_c_matches_erlang_c(path):
    rate, mu, servers = 2_100.0, 1_000.0, 3
    runs = [_run(Resource, servers, path, rate,
                 lambda rng: rng.expovariate(mu), seed)
            for seed in SEEDS]
    _assert_matches(runs, rate / mu / servers,
                    _erlang_c_wait(rate, mu, servers))


@pytest.mark.parametrize("path", PATHS)
def test_equal_priorities_grant_in_fifo_order(path):
    def grants(kind):
        return _run(kind, 2, path, 1_800.0,
                    lambda rng: rng.expovariate(1_000.0), 3)["grants"]

    assert grants(PriorityResource) == grants(Resource)
