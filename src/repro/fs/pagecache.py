"""An LRU page cache backed by a :class:`MemoryRegion`.

Used in two places, per the paper's Section 9 "Caching in DPU-backed
file system" discussion: a cache in *host* memory (cheap for host
applications) and a cache in *DPU* memory (cheap for offloaded remote
requests).  Sizing the two against each other is ablation A3.

The cache stores :class:`~repro.buffers.Buffer` handles keyed by
``(file_id, page_index)`` and charges its capacity against the owning
memory region, so cache growth genuinely competes with other memory
users (e.g. the offload engine's log-replay working set).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

from ..buffers import Buffer
from ..hardware.memory import MemoryRegion
from ..sim.stats import Counter

__all__ = ["PageCache"]


class PageCache:
    """A fixed-budget LRU cache of pages."""

    def __init__(self, memory: MemoryRegion, capacity_bytes: int,
                 name: str = "pagecache"):
        if capacity_bytes < 0:
            raise ValueError("capacity cannot be negative")
        self.memory = memory
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._entries: "OrderedDict[Hashable, Tuple[Buffer, object]]" = (
            OrderedDict()
        )
        self._used = 0
        self.hits = Counter(f"{name}.hits")
        self.misses = Counter(f"{name}.misses")
        self.evictions = Counter(f"{name}.evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Buffer]:
        """Look up a page; promotes on hit, returns None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses.add(1)
            return None
        self._entries.move_to_end(key)
        self.hits.add(1)
        return entry[0]

    def put(self, key: Hashable, page: Buffer) -> None:
        """Insert (or refresh) a page, evicting LRU entries as needed.

        Pages larger than the whole cache are not cached at all.
        """
        size = max(page.size, 1)
        if size > self.capacity_bytes:
            return
        if key in self._entries:
            self._remove(key)
        while self._used + size > self.capacity_bytes and self._entries:
            oldest_key = next(iter(self._entries))
            self._remove(oldest_key)
            self.evictions.add(1)
        allocation = self.memory.try_allocate(size, tag=f"{self.name}:page")
        if allocation is None:
            # The region is under pressure from other users; skip caching.
            return
        self._entries[key] = (page, allocation)
        self._used += size

    def invalidate(self, key: Hashable) -> bool:
        """Drop a page (e.g. after an overwrite). True if present."""
        if key in self._entries:
            self._remove(key)
            return True
        return False

    def _remove(self, key: Hashable) -> None:
        page, allocation = self._entries.pop(key)
        allocation.free()
        self._used -= max(page.size, 1)

    def hit_rate(self) -> float:
        """Hits / lookups so far (0.0 before any lookup)."""
        total = self.hits.value + self.misses.value
        return self.hits.value / total if total else 0.0
