"""Host-side measurement: spans, the layer sampler, small statistics."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import signal
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from .spec import LAYERS

__all__ = ["SpanLog", "LayerSampler", "percentile", "spread", "digest"]

#: seconds one :func:`_spin` takes on the reference box (this 2-core
#: sandbox when quiet); normalised host times are at that speed
REFERENCE_SPIN_S = 0.0475
#: seconds of work :meth:`SpanLog.pace` lets pass between two spins:
#: about one spin in nine of a repeat's host time
REFERENCE_EVERY_S = 0.4
#: rate asked of ``ITIMER_PROF`` by the layer sampler
SAMPLE_HZ = 500


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """(max - min) / median; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    middle = percentile(values, 0.5)
    return (max(values) - min(values)) / middle if middle else 0.0


def digest(simulated: dict) -> str:
    """sha256 over the canonical JSON of a simulated-result dict.

    Floats are serialised with ``repr`` (round-trip exact), keys are
    sorted: equal digests mean bit-equal simulated results.
    """
    canonical = json.dumps(simulated, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _spin(n: int = 60_000) -> float:
    """Seconds for a fixed slice of interpreter work shaped like the
    simulator's: heap pushes and pops of tuples, generator resumes,
    dict stores, float adds.

    The collector is off inside: a full collection triggered by the
    spin's own tuples costs a third of a spin when a full-size
    scenario is alive, and would land in one spin out of seven.
    """
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    seen: dict = {}
    total = 0.0

    def sink():
        while True:
            yield

    resume = sink()
    next(resume)
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    for i in range(n):
        push(heap, ((i * 0.37) % 1.0, i, None))
        if i & 1:
            total += pop(heap)[0]
        seen[i & 1023] = i
        resume.send(i)
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


class SpanLog:
    """Spans around the benchmark's own calls into the layers, and the
    reference spins that say how fast the machine ran meanwhile.

    Each span records ``id``, ``parent``, ``name``, ``start`` and
    ``end`` (``perf_counter`` seconds) and ``ref_s``, the seconds of
    reference spins taken while it was open, which are not its work;
    kept in memory, written by the runner at exit of a traced run.

    The sandbox's speed drifts by up to 2x over minutes and flickers
    by several percent between tenths of a second (neighbours on the
    host).  A fixed spin taken every ``REFERENCE_EVERY_S`` of work,
    *between* slices of the work being timed, sees the same weather
    as the work: ``speed`` is 1.0 on the reference box, and raw
    seconds times ``speed`` are seconds at reference speed.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        #: seconds of each reference spin taken so far
        self.reference_s: List[float] = []
        #: process CPU seconds those spins took
        self.reference_cpu_s = 0.0
        self._reference_ended = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Record one span; nests under the span open at entry."""
        record = {"id": len(self.spans) + 1,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "name": name, "start": time.perf_counter(),
                  "end": None, "ref_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def reference(self) -> None:
        """Take one reference spin now."""
        started, cpu_started = time.perf_counter(), time.process_time()
        self.reference_s.append(_spin())
        self.reference_cpu_s += time.process_time() - cpu_started
        # the whole call is not the open spans' work, including the
        # freeing of the spin's heap after its timed part
        self._reference_ended = time.perf_counter()
        for record in self._stack:
            record["ref_s"] += self._reference_ended - started

    def pace(self) -> None:
        """Called by a scenario between slices of its run: takes a
        reference spin when enough work has passed since the last."""
        if (time.perf_counter() - self._reference_ended
                >= REFERENCE_EVERY_S):
            self.reference()

    @property
    def speed(self) -> float:
        """Machine speed over every spin so far, 1.0 = reference box."""
        return (REFERENCE_SPIN_S * len(self.reference_s)
                / sum(self.reference_s))

    def duration(self, name: str) -> float:
        """Seconds of work (spins excluded) in every span ``name``."""
        return sum(s["end"] - s["start"] - s["ref_s"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def durations_ms(self, prefix: str) -> List[float]:
        """Milliseconds of each span whose name starts with ``prefix``."""
        return [(s["end"] - s["start"] - s["ref_s"]) * 1e3
                for s in self.spans
                if s["name"].startswith(prefix) and s["end"] is not None]


def _layer_of(relative_path: str) -> str:
    """Map a path under ``src/repro/`` to one of the 17 layers."""
    parts = relative_path.split(os.sep)
    top = parts[0]
    if top == "sim":
        stem = parts[-1][:-3]
        return f"sim.{stem}" if f"sim.{stem}" in LAYERS else "other"
    if top == "netstack":
        if parts[-1] == "tcp.py":
            return "netstack.tcp"
        if parts[-1] in ("ringbuffer.py", "rdma.py"):
            return "netstack.rings"
        return "other"
    if top == "buffers.py":
        return "buffers"
    return top if top in LAYERS else "other"


class LayerSampler:
    """CPU-time sampler charging each tick to a ``repro`` layer.

    ``signal.setitimer(ITIMER_PROF)`` fires every ``1/SAMPLE_HZ``
    seconds of process CPU time; the handler walks out from the
    interrupted frame to the innermost frame whose file is under
    ``src/repro/`` and charges that file's layer (``other`` when none
    is).  A tick that lands in this module is dropped: that is a
    reference spin, which is not part of the span being sampled.
    """

    def __init__(self, repro_root: str):
        self._root = os.path.join(os.path.realpath(repro_root), "")
        self._interval = 1.0 / SAMPLE_HZ
        self._by_file: Dict[str, Optional[str]] = {}
        self.counts: Dict[str, int] = {layer: 0 for layer in LAYERS}

    def _classify(self, filename: str) -> Optional[str]:
        layer = self._by_file.get(filename, "")
        if layer == "":
            real = os.path.realpath(filename)
            layer = (_layer_of(real[len(self._root):])
                     if real.startswith(self._root) else None)
            self._by_file[filename] = layer
        return layer

    def _on_tick(self, _signum, frame) -> None:
        if frame.f_code.co_filename == __file__:
            return
        while frame is not None:
            layer = self._classify(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1

    @contextmanager
    def sampling(self):
        """Sample for the duration of the ``with`` block."""
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self._interval,
                         self._interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    @property
    def samples(self) -> int:
        """Ticks taken so far."""
        return sum(self.counts.values())

    def self_times(self, span_s: float) -> Dict[str, float]:
        """Per-layer seconds, scaled so the 17 values sum to ``span_s``."""
        total = self.samples
        if not total:
            return {layer: (span_s if layer == "other" else 0.0)
                    for layer in LAYERS}
        return {layer: span_s * count / total
                for layer, count in self.counts.items()}
