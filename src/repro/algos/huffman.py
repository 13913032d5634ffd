"""Canonical, length-limited Huffman coding (RFC 1951 §3.2.2).

DEFLATE transmits only the *code lengths*; both ends derive the same
canonical codes from them.  Encoding therefore needs: frequencies →
length-limited code lengths → canonical codes.  Decoding needs: code
lengths → canonical decode table.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from .bitio import reverse_bits

__all__ = [
    "code_lengths_from_frequencies",
    "canonical_codes",
    "CanonicalDecoder",
]


def code_lengths_from_frequencies(frequencies: Sequence[int],
                                  max_length: int) -> List[int]:
    """Compute Huffman code lengths limited to ``max_length`` bits.

    Uses the classic practical approach: build an ordinary Huffman
    tree; if the deepest leaf exceeds the limit, dampen the frequency
    distribution (``f -> f//2 + 1``) and rebuild.  Convergence is
    guaranteed because the distribution flattens toward uniform, whose
    depth is ``ceil(log2(n)) <= max_length`` for all DEFLATE alphabets.

    Returns a list of per-symbol lengths (0 = symbol unused).
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    freqs = list(frequencies)
    used = [i for i, f in enumerate(freqs) if f > 0]
    lengths = [0] * len(freqs)
    if not used:
        return lengths
    if len(used) == 1:
        # DEFLATE requires at least a 1-bit code for a lone symbol.
        lengths[used[0]] = 1
        return lengths
    if len(used) > (1 << max_length):
        raise ValueError(
            f"{len(used)} symbols cannot fit in {max_length}-bit codes"
        )

    while True:
        depths = _huffman_depths(freqs)
        if max(depths[i] for i in used) <= max_length:
            for i in used:
                lengths[i] = depths[i]
            return lengths
        freqs = [f // 2 + 1 if f > 0 else 0 for f in freqs]


def _huffman_depths(frequencies: Sequence[int]) -> List[int]:
    """Leaf depths of an ordinary Huffman tree (0 for unused symbols)."""
    heap: List[Tuple[int, int, list]] = []
    tie = 0
    for symbol, freq in enumerate(frequencies):
        if freq > 0:
            heap.append((freq, tie, [symbol]))
            tie += 1
    heapq.heapify(heap)
    depths = [0] * len(frequencies)
    while len(heap) > 1:
        freq_a, _, leaves_a = heapq.heappop(heap)
        freq_b, _, leaves_b = heapq.heappop(heap)
        for symbol in leaves_a:
            depths[symbol] += 1
        for symbol in leaves_b:
            depths[symbol] += 1
        tie += 1
        heapq.heappush(heap, (freq_a + freq_b, tie, leaves_a + leaves_b))
    return depths


def canonical_codes(lengths: Sequence[int]) -> List[int]:
    """Assign canonical Huffman codes for the given code lengths.

    Implements the algorithm in RFC 1951 §3.2.2 exactly; a symbol with
    length 0 gets code 0 (never emitted).
    """
    if not lengths:
        return []
    max_len = max(lengths)
    bl_count = [0] * (max_len + 1)
    for length in lengths:
        if length:
            bl_count[length] += 1
    next_code = [0] * (max_len + 1)
    code = 0
    for bits in range(1, max_len + 1):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
    codes = [0] * len(lengths)
    for symbol, length in enumerate(lengths):
        if length:
            codes[symbol] = next_code[length]
            next_code[length] += 1
    return codes


class CanonicalDecoder:
    """Decodes canonical Huffman symbols from a DEFLATE bit stream.

    ``table[bits]`` is the ``(symbol, code length)`` of the code that
    ``bits``, the next ``max_len`` of the stream as ``peek_bits``
    returns them, begin with: a code owns every index ending in its
    bit-reversed self.  The lengths must give a complete prefix code
    or a single code (a block with one distance), as zlib demands.
    """

    #: table entry no code leads to (only a single-code table has any)
    INVALID = (1 << 16, 0)

    def __init__(self, lengths: Sequence[int]):
        self.max_len = max_len = max(lengths, default=0)
        if not max_len:
            raise ValueError("no symbols have codes")
        size = 1 << max_len
        used = [length for length in lengths if length]
        claimed = sum(size >> length for length in used)   # Kraft sum
        if claimed > size:
            raise ValueError("over-subscribed Huffman code lengths")
        if claimed < size and len(used) > 1:
            raise ValueError("incomplete Huffman code lengths")
        self.table: List[Tuple[int, int]] = [self.INVALID] * size
        for symbol, code in enumerate(canonical_codes(lengths)):
            length = lengths[symbol]
            if length:
                self.table[reverse_bits(code, length)::1 << length] = (
                    [(symbol, length)] * (size >> length))

    def decode(self, reader) -> int:
        """Read one symbol from a :class:`~repro.algos.bitio.BitReader`."""
        symbol, length = self.table[reader.peek_bits(self.max_len)]
        if not length:
            raise ValueError("invalid Huffman code")
        reader.skip_bits(length)
        return symbol
