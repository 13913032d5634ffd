"""A unified, hierarchically-named metrics registry.

The simulation's collectors (:class:`~repro.sim.stats.Counter`,
:class:`~repro.sim.stats.Tally`, :class:`~repro.sim.stats.TimeWeighted`)
are created all over the hardware and engine models.  The registry
gives them one home: dotted hierarchical names (``se.cache.hits``,
``ne.tcp.tx_bytes``), a single ``snapshot()`` for report tables, and
duplicate-name protection.

Two ways in:

* ``registry.counter("se.host_ops")`` — create (or fetch) an
  instrument owned by the registry;
* ``registry.register("se.host_ops", existing_counter)`` — adopt an
  instrument that already lives on an engine, so existing code keeps
  its cheap attribute access while reports read everything from one
  place.  Adoption is idempotent for the same object and an error for
  a different one (no silent shadowing).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..sim.stats import Counter, Tally, TimeWeighted

__all__ = ["MetricsRegistry"]

Instrument = Union[Counter, Tally, TimeWeighted]


class MetricsRegistry:
    """Owns named metric instruments and renders unified snapshots."""

    def __init__(self, name: str = "metrics"):
        self.name = name
        self._instruments: Dict[str, Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- create-or-fetch ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create a monotonic counter named ``name``."""
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, Counter):
                raise TypeError(
                    f"metric {name!r} is a "
                    f"{type(existing).__name__}, not a Counter"
                )
            return existing
        instrument = self._instruments[name] = Counter(name)
        return instrument

    # -- adoption ------------------------------------------------------------

    def register(self, name: str, instrument: Instrument) -> Instrument:
        """Adopt an existing instrument under ``name``.

        Re-registering the *same* object is a no-op; registering a
        *different* object under an occupied name raises ``ValueError``
        so two components cannot silently share a metric name.
        """
        if not isinstance(instrument, (Counter, Tally, TimeWeighted)):
            raise TypeError(
                f"cannot register {type(instrument).__name__} as a "
                "metric instrument"
            )
        existing = self._instruments.get(name)
        if existing is not None:
            if existing is instrument:
                return instrument
            raise ValueError(
                f"metric name {name!r} already registered to a "
                "different instrument"
            )
        self._instruments[name] = instrument
        return instrument

    # -- reading --------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def _flatten(self, now: float,
                 prev: Optional[Dict[str, float]]) -> Dict[str, float]:
        """Every instrument read once, under the naming convention.

        Counters appear under their plain name; tallies expand to
        ``.count/.mean/.p50/.p99``; levels to ``.avg/.peak``.  Keys are
        emitted in sorted order (deterministic across runs, and
        ``dict`` preserves insertion order).  With ``prev``, the event
        counts (counters, tally ``.count``) are deltas against it.
        """
        out: Dict[str, float] = {}
        for key in sorted(self._instruments):
            instrument = self._instruments[key]
            if isinstance(instrument, Counter):
                value = instrument.value
                out[key] = (value if prev is None
                            else value - prev.get(key, 0.0))
            elif isinstance(instrument, Tally):
                count = f"{key}.count"
                value = instrument.count
                out[count] = (value if prev is None
                              else value - prev.get(count, 0.0))
                out[f"{key}.mean"] = instrument.mean
                out[f"{key}.p50"] = instrument.p50
                out[f"{key}.p99"] = instrument.p99
            else:
                out[f"{key}.avg"] = instrument.average(now)
                out[f"{key}.peak"] = instrument.peak
        return out

    def snapshot(self, now: float) -> Dict[str, float]:
        """Flatten every instrument into one ``{metric: value}`` dict,
        so artifacts and tables built from a snapshot list metrics
        stably."""
        return self._flatten(now, None)

    def diff(self, prev_snapshot: Dict[str, float],
             now: float) -> Dict[str, float]:
        """Per-window view of the registry against a prior snapshot.

        Counters (and tally ``.count`` streams) are *rates of events*,
        so they come back as deltas since ``prev_snapshot``; everything
        level-like (tally ``.mean/.p50/.p99``, gauge ``.avg/.peak``)
        is a last-value read.  A metric born after ``prev_snapshot``
        was taken diffs against 0, so the scrape loop never
        special-cases registration order.  Keys are the
        :meth:`snapshot`'s.
        """
        return self._flatten(now, prev_snapshot)

    def render_table(self, now: float) -> str:
        """The snapshot as an aligned two-column text table.

        Rows come out in the snapshot's sorted order, so the same
        registry always renders the same table.
        """
        snapshot = self.snapshot(now)
        if not snapshot:
            return "(no metrics registered)"
        width = max(len(key) for key in snapshot)
        width = max(width, len("metric"))
        lines = [f"{'metric'.ljust(width)}  value",
                 f"{'-' * width}  {'-' * 12}"]
        for key, value in snapshot.items():
            if isinstance(value, float) and value != int(value):
                rendered = f"{value:.6g}"
            else:
                rendered = f"{value:g}" if isinstance(value, float) \
                    else str(value)
            lines.append(f"{key.ljust(width)}  {rendered}")
        return "\n".join(lines)
