"""Extent-based block allocation.

Files own lists of extents — enough structure for the DPU file
service's *file mapping* (file -> physical blocks) to be a real
translation rather than a stub: two files grown in turn interleave on
the device.
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


class ExtentAllocator:
    """Hands out ``total_blocks`` blocks front to back.

    Files are created and grown, never deleted, so the free space is
    always the one tail extent past the last allocation.
    """

    def __init__(self, total_blocks: int):
        if total_blocks <= 0:
            raise ValueError("need at least one block")
        self.total_blocks = total_blocks
        self._next = 0

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._next

    def allocate(self, blocks: int) -> List[Extent]:
        """Allocate ``blocks`` contiguous blocks.

        Raises :class:`StorageError` when space is insufficient.
        """
        if blocks <= 0:
            raise ValueError(f"non-positive allocation {blocks}")
        if blocks > self.free_blocks:
            raise StorageError(
                f"allocation of {blocks} blocks exceeds {self.free_blocks} "
                "free"
            )
        allocated = Extent(self._next, blocks)
        self._next += blocks
        return [allocated]
