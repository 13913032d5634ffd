"""A write-ahead journal for the fast-persistence path.

Section 9 ("Faster persistence") proposes persisting writes on the DPU
— to its directly-attached SSD or onboard persistent memory — and
acknowledging immediately, before the host ever sees the operation.
This journal is that durability point: sequential appends with
monotonically increasing LSNs, a truncation watermark, and recovery by
replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..errors import StorageError
from ..hardware.ssd import Ssd
from ..obs.trace import NULL_TRACER
from ..sim.stats import Counter, Tally

__all__ = ["Journal", "JournalRecord"]


@dataclass(frozen=True)
class JournalRecord:
    """One durable journal entry."""

    lsn: int
    kind: str
    payload: Any
    size: int


class Journal:
    """An append-only, device-backed log."""

    def __init__(self, ssd: Ssd, capacity_bytes: int,
                 name: str = "journal", tracer=None, injector=None):
        if capacity_bytes <= 0:
            raise ValueError("journal capacity must be positive")
        self.ssd = ssd
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: optional FaultInjector; site journal.<name> plus the
        #: backing device's own ssd.<name>.write site
        self.injector = injector
        if injector is not None and ssd.injector is None:
            ssd.injector = injector
        self._records: List[JournalRecord] = []
        self._next_lsn = 1
        self._used = 0
        self.appends = Counter(f"{name}.appends")
        self.append_latency = Tally(f"{name}.append_latency")

    @property
    def used_bytes(self) -> int:
        return self._used

    def append(self, kind: str, payload: Any, size: int):
        """Durably append a record (generator -> JournalRecord).

        Completes only after the device write has persisted — this is
        the DPU-side acknowledgement point for fast persistence.
        """
        if size <= 0:
            raise ValueError(f"record size must be positive, got {size}")
        if self._used + size > self.capacity_bytes:
            raise StorageError(
                f"{self.name}: journal full "
                f"({self._used}+{size} > {self.capacity_bytes}); truncate"
            )
        if self.injector is not None:
            yield from self.injector.perturb(f"journal.{self.name}")
        start = self.ssd.env.now
        with self.tracer.span("journal.append", category="storage",
                              kind=kind, bytes=size):
            yield from self.ssd.write(size)
            record = JournalRecord(self._next_lsn, kind, payload, size)
            self._next_lsn += 1
            self._records.append(record)
            self._used += size
            self.appends.add(1)
            self.append_latency.observe(self.ssd.env.now - start)
            return record

    def truncate_through(self, lsn: int) -> int:
        """Discard records with LSN <= ``lsn``; returns bytes freed."""
        freed = 0
        keep: List[JournalRecord] = []
        for record in self._records:
            if record.lsn <= lsn:
                freed += record.size
            else:
                keep.append(record)
        self._records = keep
        self._used -= freed
        return freed

    def replay(self, apply: Optional[Callable[[JournalRecord], None]]
               = None) -> List[JournalRecord]:
        """Recovery: iterate surviving records in LSN order."""
        records = sorted(self._records, key=lambda r: r.lsn)
        if apply is not None:
            for record in records:
                apply(record)
        return records
