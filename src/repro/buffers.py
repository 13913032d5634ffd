"""Data buffers that flow through the simulated data path.

Two kinds of payload move through DPDPU in this reproduction:

* :class:`RealBuffer` — actual bytes.  DP kernels run their *real*
  algorithm implementations on them (DEFLATE really compresses), so
  functional correctness is testable end to end.
* :class:`SynthBuffer` — a size-and-shape handle without materialized
  bytes.  Used by the large benchmark sweeps (hundreds of megabytes)
  where materializing bytes in pure Python would be pointless; kernels
  transform its metadata (e.g. compression scales ``size`` by the
  declared compressibility ratio).

Both share the :class:`Buffer` interface (``size``, ``fingerprint``),
and everything above this module — engines, sprocs, protocols — is
agnostic to which kind it is handling.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import zip_longest
from typing import Optional, Tuple

__all__ = ["Buffer", "RealBuffer", "SynthBuffer", "as_buffer",
           "split_records", "split_columns", "record_column"]


class Buffer:
    """Abstract payload moving through the data path."""

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        raise NotImplementedError

    def fingerprint(self) -> int:
        """A cheap content fingerprint (stable across copies)."""
        raise NotImplementedError

    def slice(self, offset: int, length: int) -> "Buffer":
        """A sub-range view of this buffer as a new buffer."""
        raise NotImplementedError


class RealBuffer(Buffer):
    """A buffer backed by actual bytes."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes-like, got {type(data).__name__}")
        self.data = bytes(data)

    @property
    def size(self) -> int:
        return len(self.data)

    def fingerprint(self) -> int:
        return zlib.crc32(self.data)

    def slice(self, offset: int, length: int) -> "RealBuffer":
        if offset < 0 or length < 0 or offset + length > len(self.data):
            raise ValueError(
                f"slice [{offset}, {offset + length}) out of range "
                f"for buffer of {len(self.data)} bytes"
            )
        return RealBuffer(self.data[offset:offset + length])

    def __eq__(self, other) -> bool:
        return isinstance(other, RealBuffer) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"RealBuffer({self.size} bytes, crc={self.fingerprint():#010x})"


class SynthBuffer(Buffer):
    """A metadata-only buffer for large-scale sweeps.

    ``compress_ratio`` declares how much a lossless compressor would
    shrink the (hypothetical) contents — e.g. 3.0 means 3:1.  A
    ``label`` distinguishes logically different payloads; it feeds the
    fingerprint so that data integrity checks remain meaningful even
    without bytes.
    """

    __slots__ = ("_size", "compress_ratio", "label")

    def __init__(self, size: int, compress_ratio: float = 3.0,
                 label: str = ""):
        if size < 0:
            raise ValueError(f"negative size {size}")
        if compress_ratio <= 0:
            raise ValueError(f"non-positive compress ratio {compress_ratio}")
        self._size = int(size)
        self.compress_ratio = float(compress_ratio)
        self.label = label

    @property
    def size(self) -> int:
        return self._size

    def fingerprint(self) -> int:
        return zlib.crc32(
            f"{self.label}:{self._size}:{self.compress_ratio}".encode()
        )

    def slice(self, offset: int, length: int) -> "SynthBuffer":
        if offset < 0 or length < 0 or offset + length > self._size:
            raise ValueError(
                f"slice [{offset}, {offset + length}) out of range "
                f"for buffer of {self._size} bytes"
            )
        # A prefix slice keeps the label: framing layers that split a
        # message into segments must not corrupt header-carrying labels.
        label = (
            self.label if offset == 0 else f"{self.label}[{offset}:]"
        )
        return SynthBuffer(length, self.compress_ratio, label)

    def with_size(self, size: int, label_suffix: str = "") -> "SynthBuffer":
        """A derived buffer of a different size (kernel output)."""
        return SynthBuffer(
            size, self.compress_ratio, self.label + label_suffix
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SynthBuffer)
            and self._size == other._size
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash((self._size, self.label))

    def __repr__(self) -> str:
        return (
            f"SynthBuffer({self._size} bytes, ratio={self.compress_ratio}, "
            f"label={self.label!r})"
        )


def as_buffer(payload, compress_ratio: float = 3.0,
              label: Optional[str] = None) -> Buffer:
    """Coerce ``payload`` into a :class:`Buffer`.

    bytes-likes become :class:`RealBuffer`; integers are interpreted as
    sizes and become :class:`SynthBuffer`.
    """
    if isinstance(payload, Buffer):
        return payload
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return RealBuffer(payload)
    if isinstance(payload, int):
        return SynthBuffer(payload, compress_ratio, label or "")
    raise TypeError(f"cannot make a buffer from {type(payload).__name__}")


# -- record decode ------------------------------------------------------------

#: Distinct buffers whose decoded form is remembered: scans re-read a
#: few immutable partitions many times.  What is kept represents the
#: *input* bytes, keyed by content — never a kernel's output.  (No
#: default arguments: ``lru_cache`` keys a call that spells the framing
#: out apart from one that leaves it implied.)
_DECODE_CACHE_ENTRIES = 256


@lru_cache(maxsize=_DECODE_CACHE_ENTRIES)
def split_records(data: bytes, delimiter: bytes) -> Tuple[bytes, ...]:
    """The non-blank records of ``data``, in order."""
    return tuple(filter(None, data.split(delimiter)))


@lru_cache(maxsize=_DECODE_CACHE_ENTRIES)
def split_columns(data: bytes, delimiter: bytes,
                  separator: bytes) -> Tuple[tuple, int]:
    """``(columns, width)``: the records of ``data`` transposed.

    ``columns[j][i]`` is field ``j`` of record ``i``, or None where a
    ragged record is too short to have one; every record has at least
    ``width`` fields, so the input is rectangular exactly when
    ``width == len(columns)``.
    """
    rows = [record.split(separator)
            for record in split_records(data, delimiter)]
    return tuple(zip_longest(*rows)), min(map(len, rows), default=0)


def record_column(data: bytes, column: Optional[int],
                  delimiter: bytes = b"\n",
                  separator: bytes = b",") -> tuple:
    """One value per record of ``data``: field ``column``, or the whole
    record when ``column`` is None.  A record without that field is a
    ``ValueError`` naming the record and its field count."""
    if column is None:
        return split_records(data, delimiter)
    columns, width = split_columns(data, delimiter, separator)
    if 0 <= column < width:
        return columns[column]
    for index, fields in enumerate(zip(*columns)):
        count = len(fields) - fields.count(None)
        if not 0 <= column < count:
            raise ValueError(f"record {index} has {count} fields; "
                             f"no column {column}")
    return ()
