"""Extent-based block allocation.

First-fit over a sorted free list with coalescing on free — the same
scheme simple production filesystems use, and enough structure for the
DPU file service's *file mapping* (file -> physical blocks) to be a
real translation rather than a stub.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import StorageError

__all__ = ["Extent", "ExtentAllocator"]


@dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks: [start, start + length)."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length <= 0:
            raise ValueError(f"invalid extent ({self.start}, {self.length})")

    @property
    def end(self) -> int:
        return self.start + self.length


class ExtentAllocator:
    """First-fit extent allocator over ``total_blocks`` blocks."""

    def __init__(self, total_blocks: int):
        if total_blocks <= 0:
            raise ValueError("need at least one block")
        self.total_blocks = total_blocks
        self._free: List[Extent] = [Extent(0, total_blocks)]

    @property
    def free_blocks(self) -> int:
        return sum(extent.length for extent in self._free)

    def allocate(self, blocks: int) -> List[Extent]:
        """Allocate ``blocks`` blocks as one or more extents.

        Prefers a single extent; falls back to stitching fragments.
        Raises :class:`StorageError` when space is insufficient.
        """
        if blocks <= 0:
            raise ValueError(f"non-positive allocation {blocks}")
        if blocks > self.free_blocks:
            raise StorageError(
                f"allocation of {blocks} blocks exceeds {self.free_blocks} "
                "free"
            )
        # First fit: a single free extent that covers the request.
        for index, extent in enumerate(self._free):
            if extent.length >= blocks:
                allocated = Extent(extent.start, blocks)
                if extent.length == blocks:
                    self._free.pop(index)
                else:
                    self._free[index] = Extent(
                        extent.start + blocks, extent.length - blocks
                    )
                return [allocated]
        # Fragmented path: consume fragments front to back.
        out: List[Extent] = []
        remaining = blocks
        while remaining > 0:
            extent = self._free[0]
            take = min(extent.length, remaining)
            out.append(Extent(extent.start, take))
            if take == extent.length:
                self._free.pop(0)
            else:
                self._free[0] = Extent(
                    extent.start + take, extent.length - take
                )
            remaining -= take
        return out

    def free(self, extents: List[Extent]) -> None:
        """Return extents to the free list, coalescing neighbours."""
        for extent in extents:
            self._insert(extent)

    def _insert(self, extent: Extent) -> None:
        # Maintain the free list sorted by start; merge adjacents.
        position = 0
        while (position < len(self._free)
               and self._free[position].start < extent.start):
            position += 1
        if position < len(self._free):
            overlap_next = extent.end > self._free[position].start
        else:
            overlap_next = False
        overlap_prev = (
            position > 0 and self._free[position - 1].end > extent.start
        )
        if overlap_next or overlap_prev:
            raise StorageError(
                f"double free of blocks [{extent.start}, {extent.end})"
            )
        self._free.insert(position, extent)
        # Coalesce with the next extent.
        if (position + 1 < len(self._free)
                and self._free[position].end
                == self._free[position + 1].start):
            merged = Extent(
                self._free[position].start,
                self._free[position].length
                + self._free[position + 1].length,
            )
            self._free[position:position + 2] = [merged]
        # Coalesce with the previous extent.
        if (position > 0
                and self._free[position - 1].end
                == self._free[position].start):
            merged = Extent(
                self._free[position - 1].start,
                self._free[position - 1].length
                + self._free[position].length,
            )
            self._free[position - 1:position + 1] = [merged]
