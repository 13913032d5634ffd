"""Bit-level I/O in DEFLATE's LSB-first order (RFC 1951 §3.1.1)."""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader", "reverse_bits"]

#: bytes a :class:`BitReader` pulls into its window at a time
REFILL_BYTES = 64


def reverse_bits(code: int, nbits: int) -> int:
    """Bit-reverse a Huffman code (DEFLATE packs codes MSB-first)."""
    reversed_code = 0
    for _ in range(nbits):
        reversed_code = (reversed_code << 1) | (code & 1)
        code >>= 1
    return reversed_code


class BitWriter:
    """Packs bits least-significant-first into a byte stream.

    Bits accumulate in one int and are flushed to the output eight
    bytes at a time (``int.to_bytes``), instead of a Python-level loop
    appending one byte per eight bits — the dominant cost when emitting
    millions of Huffman codes.
    """

    __slots__ = ("_out", "_bitbuf", "_bitcount")

    def __init__(self):
        self._out = bytearray()
        self._bitbuf = 0
        self._bitcount = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` of ``value``, LSB first."""
        if nbits < 0:
            raise ValueError(f"negative bit count {nbits}")
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self.write_pieces(((value, nbits),))

    def write_pieces(self, pieces) -> None:
        """:meth:`write_bits` for each ``(value, nbits)``, unchecked:
        for table-built codes, whose caller guarantees the range."""
        out = self._out
        bitbuf = self._bitbuf
        bitcount = self._bitcount
        for value, nbits in pieces:
            bitbuf |= value << bitcount
            bitcount += nbits
            while bitcount >= 64:
                out += (bitbuf & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                bitbuf >>= 64
                bitcount -= 64
        self._bitbuf = bitbuf
        self._bitcount = bitcount

    def write_huffman_code(self, code: int, nbits: int) -> None:
        """Write a Huffman code, which DEFLATE packs MSB-first."""
        self.write_bits(reverse_bits(code, nbits), nbits)

    def _drain_whole_bytes(self) -> None:
        nbytes = self._bitcount >> 3
        if nbytes:
            nbits = nbytes << 3
            self._out.extend(
                (self._bitbuf & ((1 << nbits) - 1)).to_bytes(
                    nbytes, "little"
                )
            )
            self._bitbuf >>= nbits
            self._bitcount -= nbits

    def align_to_byte(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        self._drain_whole_bytes()
        if self._bitcount:
            self._out.append(self._bitbuf & 0xFF)
            self._bitbuf = 0
            self._bitcount = 0

    def write_bytes(self, data: bytes) -> None:
        """Write whole bytes (must be byte-aligned)."""
        if self._bitcount & 7:
            raise ValueError("write_bytes requires byte alignment")
        self._drain_whole_bytes()
        self._out.extend(data)

    def getvalue(self) -> bytes:
        """Finish the stream (flushing a partial byte) and return it."""
        self.align_to_byte()
        return bytes(self._out)


class BitReader:
    """Reads bits least-significant-first from a byte stream.

    Unread bits sit in one int, the window, topped up ``REFILL_BYTES``
    at a time, so a read is a mask and a shift.  ``_inflate_block``
    in ``deflate`` keeps the window in locals while it decodes a block.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0           # next byte of ``_data`` not in the window
        self._bitbuf = 0
        self._bitcount = 0

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` (LSB-first) as an integer."""
        value = self.peek_bits(nbits)
        self.skip_bits(nbits)
        return value

    def peek_bits(self, nbits: int) -> int:
        """The next ``nbits`` without consuming them; bits past the
        end of the stream read as zero."""
        if nbits < 0:
            raise ValueError(f"negative bit count {nbits}")
        while self._bitcount < nbits and self._pos < len(self._data):
            chunk = self._data[self._pos:self._pos + REFILL_BYTES]
            self._pos += len(chunk)
            self._bitbuf |= int.from_bytes(chunk, "little") << self._bitcount
            self._bitcount += len(chunk) << 3
        return self._bitbuf & ((1 << nbits) - 1)

    def skip_bits(self, nbits: int) -> None:
        """Consume ``nbits`` already peeked."""
        if nbits > self._bitcount:
            raise EOFError("bit stream exhausted")
        self._bitbuf >>= nbits
        self._bitcount -= nbits

    def read_bit(self) -> int:
        """Read a single bit."""
        return self.read_bits(1)

    def align_to_byte(self) -> None:
        """Discard bits up to the next byte boundary."""
        self.skip_bits(self._bitcount & 7)

    def read_bytes(self, count: int) -> bytes:
        """Read whole bytes (must be byte-aligned)."""
        if self._bitcount & 7:
            raise ValueError("read_bytes requires byte alignment")
        self._pos -= self._bitcount >> 3    # whole bytes go back
        self._bitbuf = self._bitcount = 0
        if self._pos + count > len(self._data):
            raise EOFError("byte stream exhausted")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return bytes(chunk)

    @property
    def exhausted(self) -> bool:
        """True when no complete byte and no buffered bits remain."""
        return self._pos >= len(self._data) and self._bitcount == 0
