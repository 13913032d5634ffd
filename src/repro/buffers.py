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
from functools import wraps
from itertools import zip_longest
from sys import getsizeof
from typing import Iterable, Optional

__all__ = ["Buffer", "RealBuffer", "SynthBuffer", "as_buffer",
           "split_records", "split_columns", "record_column",
           "column_codes", "column_verdicts"]


class Buffer:
    """Abstract payload moving through the data path."""

    __slots__ = ()

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


def as_buffer(payload) -> Buffer:
    """Coerce ``payload`` into a :class:`Buffer`.

    bytes-likes become :class:`RealBuffer`; integers are interpreted as
    sizes and become :class:`SynthBuffer`.
    """
    if isinstance(payload, Buffer):
        return payload
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return RealBuffer(payload)
    if isinstance(payload, int):
        return SynthBuffer(payload)
    raise TypeError(f"cannot make a buffer from {type(payload).__name__}")


# -- record decode ------------------------------------------------------------

#: Bytes the remembered decodes may hold together, charged by the
#: estimated size of what they decoded (not of the input bytes their
#: keys reference); the least recently used goes first.  Scans re-read
#: a few immutable partitions many times; ``scan_pushdown`` and the
#: ``query`` experiment peak at ≈ 19 MiB.  What is kept represents the
#: *input* bytes, keyed by content — never a kernel's output or a
#: predicate's verdict.
_DECODE_CACHE_BYTES = 32 << 20

#: ``(decode, *arguments) -> (decoded, charge, first key)``, least
#: recently used first (a hit is popped and put back at the end)
_decoded: dict = {}

_BYTES_HEADER = getsizeof(b"")


def _remembered(decode):
    """``decode`` memoised within the byte ceiling; it returns what it
    decoded and its charge, the caller gets the first.  Arguments are
    positional without defaults, so equal framings key alike."""
    @wraps(decode)
    def remembered(*args):
        key = (decode, *args)
        entry = _decoded.pop(key, None)  # the one content comparison
        if entry is not None:
            # Back under its first key: equal input bytes are held once.
            _decoded[entry[2]] = entry
            return entry[0]
        _decoded[key] = entry = (*decode(*args), key)
        while (sum(held[1] for held in _decoded.values())
               > _DECODE_CACHE_BYTES):
            del _decoded[next(iter(_decoded))]
        return entry[0]
    return remembered


@_remembered
def split_records(data: bytes, delimiter: bytes):
    """The non-blank records of ``data``, in order, as a tuple."""
    records = tuple(filter(None, data.split(delimiter)))
    return records, (getsizeof(records) + _BYTES_HEADER * len(records)
                     + len(data))


@_remembered
def split_columns(data: bytes, delimiter: bytes, separator: bytes):
    """``(columns, width)``: the records of ``data`` transposed.

    ``columns[j][i]`` is field ``j`` of record ``i``, or None where a
    ragged record is too short to have one; every record has at least
    ``width`` fields, so the input is rectangular exactly when
    ``width == len(columns)``.  Equal fields of ``data`` are one
    object.
    """
    rows = [record.split(separator)
            for record in split_records(data, delimiter)]
    shared: dict = {}
    columns = tuple(tuple(map(shared.setdefault, column, column))
                    for column in zip_longest(*rows))
    shared.pop(None, None)
    return ((columns, min(map(len, rows), default=0)),
            _BYTES_HEADER * len(shared) + sum(map(len, shared))
            + sum(map(getsizeof, columns)))


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


@_remembered
def column_codes(data: bytes, column: int, delimiter: bytes,
                 separator: bytes):
    """``(distinct, codes)``: field ``column`` of every record of
    ``data`` dictionary-encoded.  ``distinct`` holds the values in
    first-occurrence order and ``codes[i]`` is the index of record
    ``i``'s value in it (``bytes`` while every index fits one byte, a
    tuple past that); a record without the field raises as
    :func:`record_column` does."""
    values = record_column(data, column, delimiter, separator)
    index = {value: code
             for code, value in enumerate(dict.fromkeys(values))}
    distinct = tuple(index)
    codes = (bytes if len(distinct) <= 0x100 else tuple)(
        map(index.__getitem__, values))
    return ((distinct, codes),
            getsizeof(distinct) + getsizeof(codes)
            + sum(map(getsizeof, distinct))
            + sum(map(getsizeof, index.values())))


def column_verdicts(data: bytes, column: Optional[int], delimiter: bytes,
                    separator: bytes, test) -> Iterable:
    """``test``'s verdict for every record of ``data``, in record order.

    On field ``column``, ``test`` is called once per distinct value, in
    first-occurrence order, on every call (no verdict outlives it), so
    it must be a pure function of the value; with ``column`` None it is
    called on each whole record, once per record."""
    if column is None:
        return map(test, split_records(data, delimiter))
    distinct, codes = column_codes(data, column, delimiter, separator)
    return map(list(map(test, distinct)).__getitem__, codes)
