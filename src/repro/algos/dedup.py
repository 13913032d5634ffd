"""Content-defined chunking and deduplication, from scratch.

The real algorithm behind the ``dedup`` DP kernel (BlueField-2 ships a
deduplication ASIC).  Uses a gear-hash rolling fingerprint to place
chunk boundaries at content-determined positions — so an insertion
early in a stream does not shift every later chunk — then fingerprints
each chunk for duplicate detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .crc import crc32

__all__ = ["Chunk", "chunk_stream", "DedupIndex", "dedup_ratio"]

# Deterministic 256-entry gear table (splitmix64 over the byte value).
def _gear_table() -> Tuple[int, ...]:
    table = []
    for byte in range(256):
        z = (byte + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        table.append(z ^ (z >> 31))
    return tuple(table)


_GEAR = _gear_table()


@dataclass(frozen=True)
class Chunk:
    """One content-defined chunk of a stream."""

    offset: int
    length: int
    fingerprint: int

    def __post_init__(self):
        if self.offset < 0 or self.length <= 0:
            raise ValueError("invalid chunk geometry")


def chunk_stream(data: bytes, avg_size: int = 4096,
                 min_size: int = 1024, max_size: int = 16384) -> List[Chunk]:
    """Split ``data`` into content-defined chunks.

    A boundary is declared when the rolling gear hash has its top
    ``log2(avg_size)`` bits clear, giving an expected chunk size of
    ``avg_size`` bytes, clamped to ``[min_size, max_size]``.

    No boundary can fall in a chunk's first ``min_size`` bytes, and
    each step shifts one bit out of the 64-bit hash, so the first hash
    that is tested depends on the 64 bytes before it alone: the bytes
    ahead of those are not hashed at all.
    """
    if not (0 < min_size <= avg_size <= max_size):
        raise ValueError("need 0 < min_size <= avg_size <= max_size")
    mask_bits = max(1, avg_size.bit_length() - 1)
    mask = ((1 << mask_bits) - 1) << (64 - mask_bits)

    chunks: List[Chunk] = []
    data = bytes(data)
    n = len(data)
    gear = _GEAR
    start = 0
    while start < n:
        first = start + min_size - 1    # the first byte a cut may follow
        state = 0
        for byte in data[max(start, first - 63):first]:
            state = (state << 1) + gear[byte] & 0xFFFFFFFFFFFFFFFF
        end = min(start + max_size, n)
        for pos, byte in enumerate(data[first:end], first + 1):
            state = (state << 1) + gear[byte] & 0xFFFFFFFFFFFFFFFF
            if not state & mask:
                end = pos
                break
        chunks.append(Chunk(start, end - start, crc32(data[start:end])))
        start = end
    return chunks


class DedupIndex:
    """A fingerprint index that detects duplicate chunks."""

    def __init__(self):
        self._seen: Dict[int, Chunk] = {}
        self.unique_bytes = 0
        self.total_bytes = 0

    def ingest(self, data: bytes, **chunk_kwargs) -> List[Tuple[Chunk, bool]]:
        """Chunk ``data`` and record each chunk.

        Returns ``(chunk, is_duplicate)`` pairs in stream order.
        """
        out = []
        for chunk in chunk_stream(data, **chunk_kwargs):
            duplicate = chunk.fingerprint in self._seen
            if not duplicate:
                self._seen[chunk.fingerprint] = chunk
                self.unique_bytes += chunk.length
            self.total_bytes += chunk.length
            out.append((chunk, duplicate))
        return out

    @property
    def unique_chunks(self) -> int:
        return len(self._seen)

    def ratio(self) -> float:
        """Dedup ratio: total bytes seen / unique bytes stored."""
        if self.unique_bytes == 0:
            return 1.0
        return self.total_bytes / self.unique_bytes


def dedup_ratio(data: bytes, **chunk_kwargs) -> float:
    """One-shot dedup ratio of a byte stream."""
    index = DedupIndex()
    index.ingest(data, **chunk_kwargs)
    return index.ratio()
