"""An extent-based filesystem with an explicit file mapping.

This is the substrate under both storage paths in the paper:

* the *host* path (baseline): the OS filesystem, reached through the
  kernel block stack;
* the *DPU file service* (Section 7): the same structure, but owned by
  the DPU — "the DPU already maintains the mapping between user files
  and physical blocks on the SSDs (i.e., the file mapping)".

The :class:`FileMapping` is deliberately a first-class object so DDS
can hand it to the DPU: given ``(file_id, offset, size)`` it yields
physical block runs without any host involvement.

Timing comes from the block device; CPU cycles are charged by the
caller (kernel path vs SPDK path cost profiles), keeping one
filesystem implementation for all experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..buffers import Buffer, SynthBuffer, as_buffer
from ..errors import FileNotFoundOnDpuError, FileSystemError
from ..obs.trace import NULL_TRACER
from ..sim.stats import Counter, fold_sum
from .blockdev import BlockDevice
from .extents import Extent, ExtentAllocator

__all__ = ["FileSystem", "FileMapping", "Inode"]


@dataclass
class Inode:
    """Metadata for one file."""

    file_id: int
    name: str
    size: int = 0
    extents: List[Extent] = field(default_factory=list)

    @property
    def allocated_blocks(self) -> int:
        return fold_sum(extent.length for extent in self.extents)


class FileMapping:
    """The file -> physical blocks translation table.

    Exactly the state DDS delegates to the DPU: enough to turn a remote
    ``(file_id, offset, size)`` request into device I/O with no host
    round trip.
    """

    def __init__(self, block_size: int):
        self.block_size = block_size
        self._inodes: Dict[int, Inode] = {}
        self._by_name: Dict[str, int] = {}

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._inodes

    def inode(self, file_id: int) -> Inode:
        """The inode for ``file_id``; raises if unknown."""
        inode = self._inodes.get(file_id)
        if inode is None:
            raise FileNotFoundOnDpuError(f"no file with id {file_id}")
        return inode

    def add(self, inode: Inode) -> None:
        """Register a new inode in the mapping."""
        if inode.name in self._by_name:
            raise FileSystemError(f"file {inode.name!r} already exists")
        self._inodes[inode.file_id] = inode
        self._by_name[inode.name] = inode.file_id

    def translate(self, file_id: int, offset: int,
                  size: int) -> List[Tuple[int, int]]:
        """Map a byte range to physical ``(lba, block_count)`` runs."""
        inode = self.inode(file_id)
        if offset < 0 or size <= 0:
            raise FileSystemError(
                f"invalid range offset={offset} size={size}"
            )
        if offset + size > inode.size:
            raise FileSystemError(
                f"range [{offset}, {offset + size}) beyond file size "
                f"{inode.size}"
            )
        first_block = offset // self.block_size
        last_block = (offset + size - 1) // self.block_size
        runs: List[Tuple[int, int]] = []
        logical = 0
        for extent in inode.extents:
            extent_first = logical
            extent_last = logical + extent.length - 1
            lo = max(first_block, extent_first)
            hi = min(last_block, extent_last)
            if lo <= hi:
                runs.append(
                    (extent.start + (lo - extent_first), hi - lo + 1)
                )
            logical += extent.length
        return runs


class FileSystem:
    """Extent filesystem over one block device."""

    def __init__(self, device: BlockDevice, name: str = "fs",
                 tracer=None):
        self.device = device
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.block_size = device.block_size
        self.mapping = FileMapping(device.block_size)
        self._allocator = ExtentAllocator(device.num_blocks)
        self._file_ids = itertools.count(1)
        #: real page contents, for RealBuffer data paths
        self._contents: Dict[Tuple[int, int], Buffer] = {}
        self.bytes_read = Counter(f"{name}.bytes_read")
        self.bytes_written = Counter(f"{name}.bytes_written")

    # -- namespace ---------------------------------------------------------

    def create(self, name: str, size: int = 0) -> int:
        """Create a file, optionally preallocated to ``size`` bytes."""
        if size < 0:
            raise FileSystemError(f"negative size {size}")
        file_id = next(self._file_ids)
        inode = Inode(file_id, name)
        self.mapping.add(inode)
        if size:
            self._grow(inode, size)
        return file_id

    def _grow(self, inode: Inode, new_size: int) -> None:
        needed_blocks = (
            (new_size + self.block_size - 1) // self.block_size
            - inode.allocated_blocks
        )
        if needed_blocks > 0:
            inode.extents.extend(self._allocator.allocate(needed_blocks))
        inode.size = max(inode.size, new_size)

    # -- data path -----------------------------------------------------------

    def write(self, file_id: int, offset: int, payload):
        """Write ``payload`` at ``offset`` (generator; device-timed)."""
        buffer = as_buffer(payload)
        if buffer.size == 0:
            return 0
        inode = self.mapping.inode(file_id)
        if offset < 0:
            raise FileSystemError(f"negative offset {offset}")
        with self.tracer.span("fs.write", category="storage",
                              file_id=file_id, bytes=buffer.size):
            end = offset + buffer.size
            if end > inode.size:
                self._grow(inode, end)
            for lba, count in self.mapping.translate(file_id, offset,
                                                     buffer.size):
                yield from self.device.write_blocks(lba, count)
            self._store_content(file_id, offset, buffer)
            self.bytes_written.add(buffer.size)
            return buffer.size

    def read(self, file_id: int, offset: int, size: int):
        """Read ``size`` bytes at ``offset`` (generator -> Buffer)."""
        with self.tracer.span("fs.read", category="storage",
                              file_id=file_id, bytes=size):
            for lba, count in self.mapping.translate(file_id, offset,
                                                     size):
                yield from self.device.read_blocks(lba, count)
            self.bytes_read.add(size)
            return self.peek(file_id, offset, size)

    # -- content bookkeeping (no timing) ----------------------------------------

    def peek(self, file_id: int, offset: int, size: int) -> Buffer:
        """The buffer a read of this range returns (no device time)."""
        if offset % self.block_size == 0:
            stored = self._contents.get((file_id, offset))
            if stored is not None and stored.size == size:
                return stored
        return SynthBuffer(size, label=f"file{file_id}@{offset}")

    def _store_content(self, file_id: int, offset: int,
                       buffer: Buffer) -> None:
        # Track contents at write granularity, keyed by offset: exact
        # re-reads get the real bytes back, which is what the
        # page-oriented workloads in this repo do.
        self._contents[(file_id, offset)] = buffer
