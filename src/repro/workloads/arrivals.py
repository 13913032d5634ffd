"""Request arrival processes: open-loop drivers and traffic shapes.

The paper's Figures 2 and 3 sweep *offered load* (pages/second,
bandwidth) and measure CPU consumption — an open-loop setup.  The
basic helpers (:func:`open_loop`, :func:`poisson_arrivals`) drive a
per-request handler at a target rate inside the simulation.

The chaos-scenario matrix (ROADMAP item 5) needs traffic that looks
like real users rather than a constant drip, so this module also
carries a family of *shaped* generators:

* :func:`mmpp_arrivals` — a Markov-modulated Poisson process: the
  rate jumps between states (calm / burst) with exponential dwell
  times, the standard bursty-traffic model;
* :func:`flash_crowd` — a piecewise surge profile (steady → ramp →
  peak → ramp down), the flash-crowd chaos scenario's driver;
* :class:`ParetoSizes` — bounded heavy-tailed request sizes;
* :class:`TenantMix` — a weighted tenant population, so a request
  stream can be attributed to tenants deterministically.

**Determinism contract.**  Every generator is a pure function of its
seed: rate-state transitions and thinning draws come from one
``random.Random(seed)`` consumed in a fixed order, and the per-index
samplers (:meth:`ParetoSizes.size`, :meth:`TenantMix.tenant`) hash
``(seed, index)`` with crc32 so the value for request *i* does not
depend on how many other requests were sampled first.  Replaying a
scenario with the same seeds is byte-identical.

**Counting contract.**  ``open_loop`` with rate ``r`` and duration
``d`` fires exactly ``floor(r * d)`` requests at ``t = i / r`` — the
number of full inter-arrival intervals that fit in the duration —
computed with a relative epsilon so floating-point dust cannot drop
the final arrival (``r=100, d=0.29`` fires 29 requests even though
``100 * 0.29 == 28.999...996`` in binary).  The stochastic drivers
fire every sampled arrival strictly before ``d``.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Callable, Dict, Sequence

from ..sim import Environment, EventPopulation

__all__ = [
    "arrival_count",
    "open_loop",
    "poisson_arrivals",
    "mmpp_arrivals",
    "flash_crowd",
    "ParetoSizes",
    "TenantMix",
]


def arrival_count(rate_per_s: float, duration_s: float) -> int:
    """``floor(rate * duration)``, robust to floating-point dust.

    The mathematically exact product is often not representable
    (``100 * 0.29`` evaluates to ``28.999999999999996``), and a bare
    ``int()`` then silently drops the final arrival.  A half-ulp-ish
    relative epsilon restores the intended floor without ever
    *adding* an arrival the exact product would not include.
    """
    product = rate_per_s * duration_s
    return int(math.floor(product * (1.0 + 1e-12) + 1e-9))


def open_loop(env: Environment, rate_per_s: float,
              handler: Callable[[int], object],
              duration_s: float,
              name: str = "open-loop") -> EventPopulation:
    """Fire ``handler(i)`` every ``1/rate`` seconds for ``duration``.

    ``handler`` returns a generator which is spawned as its own
    process (the arrival loop never blocks on request completion —
    that is what makes it open-loop).  A handler that fires work
    asynchronously and returns ``None`` is simply called — no process
    is spawned for it.  Returns the arrival
    :class:`~repro.sim.EventPopulation` — an event that fires once
    the stream is exhausted (joinable like the old driver process).

    Exactly :func:`arrival_count` requests fire, at ``t = i / rate``
    for ``i in [0, floor(rate * duration))`` — one per full
    inter-arrival interval that fits in the duration.  The whole
    schedule is precomputed into one population: no driver process
    and no per-arrival timeout exist at runtime.
    """
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    interval = 1.0 / rate_per_s
    count = arrival_count(rate_per_s, duration_s)
    start = env.now
    times = [start + i * interval for i in range(count)]
    return EventPopulation(env, times, handler, name=name)


def poisson_arrivals(env: Environment, rate_per_s: float,
                     handler: Callable[[int], object],
                     duration_s: float, seed: int = 0,
                     name: str = "poisson") -> EventPopulation:
    """Like :func:`open_loop` with exponential inter-arrival gaps.

    Every sampled arrival strictly inside ``[0, duration)`` fires;
    the first gap is sampled too, so the expected count is
    ``rate * duration`` (the realized count is seed-dependent).
    """
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = random.Random(seed)
    start = env.now
    times = []
    elapsed = 0.0
    log = math.log
    rnd = rng.random
    while True:
        elapsed += -log(1.0 - rnd()) / rate_per_s
        if elapsed >= duration_s:
            break
        times.append(start + elapsed)
    return EventPopulation(env, times, handler, name=name)


# -- shaped arrival processes ------------------------------------------------------


def _thinned_driver(env: Environment, handler, duration_s: float,
                    peak_rate: float, rate_at: Callable[[float], float],
                    rng: random.Random, name: str) -> EventPopulation:
    """A nonhomogeneous Poisson process by thinning against the peak.

    Candidate arrivals are sampled at the constant ``peak_rate``;
    each is accepted with probability ``rate_at(t) / peak_rate`` —
    the textbook construction, exact for any bounded rate function
    and deterministic given the shared ``rng``.

    The rejection sampling happens entirely at precompute time: the
    draws (one gap, one acceptance per candidate) are consumed in the
    same fixed order as the historical per-event driver, but rejected
    candidates now cost zero simulated events — only accepted
    arrivals enter the population.
    """
    start = env.now
    times = []
    elapsed = 0.0
    log = math.log
    rnd = rng.random
    while True:
        elapsed += -log(1.0 - rnd()) / peak_rate
        if elapsed >= duration_s:
            break
        if rnd() * peak_rate < rate_at(elapsed):
            times.append(start + elapsed)
    return EventPopulation(env, times, handler, name=name)


def mmpp_arrivals(env: Environment, handler: Callable[[int], object],
                  duration_s: float,
                  rates: Sequence[float] = (40_000.0, 240_000.0),
                  dwell_s: Sequence[float] = (2e-3, 5e-4),
                  seed: int = 0, name: str = "mmpp"):
    """A Markov-modulated Poisson process: bursty request traffic.

    The modulating chain cycles through ``rates`` states (state ``k``
    offers Poisson arrivals at ``rates[k]``), staying in each for an
    exponential dwell with mean ``dwell_s[k]``.  Two states give the
    classic calm/burst interrupted-Poisson model; more states give
    multi-level bursts.  Deterministic for a fixed ``seed``.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if len(rates) != len(dwell_s) or not rates:
        raise ValueError("rates and dwell_s must be equal, non-empty")
    if any(rate < 0 for rate in rates) or any(d <= 0 for d in dwell_s):
        raise ValueError("rates must be >= 0 and dwells > 0")
    rng = random.Random(seed)
    state = {"k": 0, "until": 0.0}

    def rate_at(t: float) -> float:
        # Advance the modulating chain up to t (draws are consumed in
        # arrival order, so the trajectory is seed-deterministic).
        while t >= state["until"]:
            state["k"] = (state["k"] + 1) % len(rates) \
                if state["until"] > 0.0 else 0
            mean = dwell_s[state["k"]]
            state["until"] += -math.log(1.0 - rng.random()) * mean
        return rates[state["k"]]

    peak = max(rates)
    if peak <= 0:
        raise ValueError("at least one state rate must be positive")
    return _thinned_driver(env, handler, duration_s, peak, rate_at,
                           rng, name)


def flash_crowd(env: Environment, handler: Callable[[int], object],
                duration_s: float, base_rate: float,
                peak_rate: float, surge_start_s: float,
                surge_s: float, ramp_s: float = 0.0,
                seed: int = 0, name: str = "flash"):
    """A flash-crowd surge: steady → (ramp) → peak → (ramp) → steady.

    Offered rate is ``base_rate`` outside the surge window and
    ``peak_rate`` inside ``[surge_start, surge_start + surge_s)``,
    with linear ramps of ``ramp_s`` on both edges.  This is the
    open-loop driver of the flash-crowd chaos scenario: the surge is
    *offered* regardless of what the cluster can absorb.
    """
    if peak_rate < base_rate:
        raise ValueError("peak rate must be >= base rate")
    if base_rate <= 0 or duration_s <= 0:
        raise ValueError("base rate and duration must be positive")
    if surge_start_s < 0 or surge_s <= 0 or ramp_s < 0:
        raise ValueError("surge window must be non-negative")
    rng = random.Random(seed)
    surge_end = surge_start_s + surge_s

    def rate_at(t: float) -> float:
        if ramp_s > 0 and surge_start_s - ramp_s <= t < surge_start_s:
            frac = (t - (surge_start_s - ramp_s)) / ramp_s
            return base_rate + frac * (peak_rate - base_rate)
        if surge_start_s <= t < surge_end:
            return peak_rate
        if ramp_s > 0 and surge_end <= t < surge_end + ramp_s:
            frac = 1.0 - (t - surge_end) / ramp_s
            return base_rate + frac * (peak_rate - base_rate)
        return base_rate

    return _thinned_driver(env, handler, duration_s, peak_rate,
                           rate_at, rng, name)


# -- per-request samplers ----------------------------------------------------------


def _unit_stream(seed: int, tag: str, index: int) -> float:
    """A crc32-derived uniform in [0, 1): pure in (seed, tag, index)."""
    stream = zlib.crc32(f"{tag}:{seed}:{index}".encode())
    return (stream % 1_000_000) / 1_000_000.0


class ParetoSizes:
    """Bounded heavy-tailed request sizes (Pareto by inverse CDF).

    ``size(i)`` is a pure function of ``(seed, i)`` — the i-th
    request has the same size no matter how many siblings were
    sampled — which keeps multi-driver scenarios deterministic.
    Sizes are clamped to ``[min_size, max_size]`` and rounded down to
    64 bytes.
    """

    def __init__(self, alpha: float = 1.3, min_size: int = 512,
                 max_size: int = 262_144, seed: int = 0):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < min_size <= max_size:
            raise ValueError("need 0 < min_size <= max_size")
        self.alpha = alpha
        self.min_size = min_size
        self.max_size = max_size
        self.seed = seed

    def size(self, index: int) -> int:
        """The heavy-tailed size of request ``index``, in bytes."""
        unit = _unit_stream(self.seed, "pareto", index)
        raw = self.min_size / (1.0 - unit) ** (1.0 / self.alpha)
        clamped = min(max(raw, self.min_size), self.max_size)
        aligned = int(clamped // 64) * 64
        return max(aligned, self.min_size)


class TenantMix:
    """A weighted tenant population for attributing request streams.

    ``tenant(i)`` deterministically assigns request ``i`` to one of
    the named tenants with probability proportional to its weight —
    again a pure function of ``(seed, i)``, so every driver in a
    scenario can share one mix without coordinating draw order.
    """

    def __init__(self, weights: Dict[str, float], seed: int = 0):
        if not weights:
            raise ValueError("need at least one tenant")
        if any(weight <= 0 for weight in weights.values()):
            raise ValueError("tenant weights must be positive")
        #: deterministic iteration: tenants in name order
        self.names = sorted(weights)
        self.weights = {name: weights[name] for name in self.names}
        self.seed = seed
        total = sum(self.weights.values())
        self._cumulative = []
        acc = 0.0
        for name in self.names:
            acc += self.weights[name] / total
            self._cumulative.append((acc, name))

    def tenant(self, index: int) -> str:
        """The tenant request ``index`` belongs to."""
        unit = _unit_stream(self.seed, "tenant", index)
        for bound, name in self._cumulative:
            if unit < bound:
                return name
        return self._cumulative[-1][1]
