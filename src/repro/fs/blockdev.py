"""Block device layer on top of the SSD model.

Translates block-addressed I/O (LBA + count) into SSD operations and
keeps per-device accounting.  Content is tracked at the filesystem
layer; this layer owns geometry and timing.
"""

from __future__ import annotations

from ..errors import StorageError
from ..hardware.ssd import Ssd
from ..obs.trace import NULL_TRACER
from ..sim.stats import Counter
from ..units import GiB

__all__ = ["BlockDevice"]


class BlockDevice:
    """A fixed-geometry block device backed by an :class:`Ssd`."""

    def __init__(self, ssd: Ssd, capacity_bytes: int = 256 * GiB,
                 block_size: int = 4096, tracer=None):
        if block_size <= 0 or capacity_bytes < block_size:
            raise ValueError("invalid block device geometry")
        self.ssd = ssd
        self.block_size = block_size
        self.num_blocks = capacity_bytes // block_size
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.reads = Counter("blockdev.reads")
        self.writes = Counter("blockdev.writes")

    def _check(self, lba: int, count: int) -> None:
        if count <= 0:
            raise StorageError(f"non-positive block count {count}")
        if lba < 0 or lba + count > self.num_blocks:
            raise StorageError(
                f"blocks [{lba}, {lba + count}) outside device of "
                f"{self.num_blocks} blocks"
            )

    def read_blocks(self, lba: int, count: int):
        """Read ``count`` blocks starting at ``lba`` (generator)."""
        self._check(lba, count)
        self.reads.add(1)
        with self.tracer.span("ssd.read", category="storage",
                              lba=lba, blocks=count):
            yield from self.ssd.read(count * self.block_size)

    def write_blocks(self, lba: int, count: int):
        """Write ``count`` blocks starting at ``lba`` (generator)."""
        self._check(lba, count)
        self.writes.add(1)
        with self.tracer.span("ssd.write", category="storage",
                              lba=lba, blocks=count):
            yield from self.ssd.write(count * self.block_size)
