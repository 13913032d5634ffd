"""Measurement utilities for simulations.

Collectors used throughout the hardware models and benchmarks:

* :class:`Counter` — monotonically increasing tallies (ops, bytes).
* :class:`Tally` — summary statistics over discrete observations
  (latency samples): mean, percentiles.
* :class:`TimeWeighted` — time-averaged level statistics (queue depth,
  busy cores): the integral of the level over time divided by elapsed.
* :func:`fold_sum` — the one way ``src/repro`` adds up a sequence, so
  a float total rounds the same on every interpreter.
"""

from __future__ import annotations

import math
import random
import sys
from functools import partial, reduce
from operator import add
from typing import Iterable, List, Optional

__all__ = ["Counter", "Tally", "TimeWeighted", "fold_sum"]

#: a left fold in C: the builtin below 3.12; from 3.12 the builtin adds
#: floats with compensated summation (gh-100425), so ``reduce(add, …)``
_LEFT_FOLD = sum if sys.version_info < (3, 12) else partial(reduce, add)


class Counter:
    """A named monotonic counter."""

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount`` (non-negative)."""
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Tally:
    """Summary statistics over a stream of observations.

    By default keeps all samples (simulations here are small enough).
    Pass ``max_samples`` to bound memory with reservoir sampling
    (algorithm R, seeded for determinism): ``count`` and ``mean`` stay
    exact, while the percentiles are computed over the uniform
    reservoir.
    """

    def __init__(self, name: str = "tally",
                 max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._total = 0.0
        self._rng = random.Random(0) if max_samples is not None \
            else None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self._total += value
        if self.max_samples is None or len(self._samples) < self.max_samples:
            self._samples.append(value)
            self._sorted = None
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.max_samples:
                self._samples[slot] = value
                self._sorted = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def _percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        data = self._sorted
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(data) - 1)
        frac = rank - low
        return data[low] * (1 - frac) + data[high] * frac

    @property
    def p50(self) -> float:
        return self._percentile(50)

    @property
    def p99(self) -> float:
        return self._percentile(99)

    @property
    def p999(self) -> float:
        return self._percentile(99.9)

    def __repr__(self) -> str:
        return (
            f"Tally({self.name}: n={self.count}, mean={self.mean:.6g}, "
            f"p99={self.p99:.6g})"
        )


class TimeWeighted:
    """Time-weighted average of a piecewise-constant level.

    Call :meth:`set` whenever the level changes; ``average(now)`` is
    the integral divided by elapsed time.  Used for queue depths and
    "cores consumed" measurements.
    """

    def __init__(self, name: str = "level"):
        self.name = name
        self._level = 0.0
        self._last_time = 0.0
        self._integral = 0.0
        self._peak = 0.0

    def set(self, level: float, now: float) -> None:
        """Change the level at time ``now``."""
        if now < self._last_time:
            raise ValueError("time moved backwards")
        self._integral += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level
        self._peak = max(self._peak, level)

    def average(self, now: float) -> float:
        """Time-weighted mean level from time zero to ``now``."""
        if now <= 0:
            return self._level
        integral = self._integral + self._level * (now - self._last_time)
        return integral / now

    @property
    def peak(self) -> float:
        return self._peak

    def __repr__(self) -> str:
        return f"TimeWeighted({self.name}: level={self._level})"


def fold_sum(values: Iterable) -> float:
    """``values`` added left to right, from 0.

    The one way ``src/repro`` adds up a sequence: 3.11's ``sum`` and
    a plain ``reduce(add, values, 0)`` round every partial total the
    same, so a float total — and every simulated number built on one —
    is the same on every interpreter.  The choice between them is made
    once, at import, and both fold in C.
    """
    return _LEFT_FOLD(values, 0)
