"""DEFLATE (RFC 1951) compression and decompression from scratch.

This is the real algorithm behind the ``compress``/``decompress`` DP
kernels: LZ77 matching over a 32 KiB window followed by canonical
Huffman coding, with all three block types (stored, fixed, dynamic).
The output is a *raw* DEFLATE stream, interoperable with
``zlib.decompress(data, wbits=-15)`` — and :func:`inflate` decodes
streams produced by zlib, which the tests exploit for cross-validation.

Levels: 0 = stored blocks only; 1 = fixed-Huffman, greedy matching;
6 (default) and above = dynamic Huffman with lazy matching.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .bitio import REFILL_BYTES, BitReader, BitWriter, reverse_bits
from .huffman import (
    CanonicalDecoder,
    canonical_codes,
    code_lengths_from_frequencies,
)

__all__ = ["deflate", "inflate", "compression_ratio"]

_WINDOW_SIZE = 32 * 1024
_MIN_MATCH = 3
_MAX_MATCH = 258
#: bytes of a candidate compared before the full ``_MAX_MATCH``
_SHORT_COMPARE = 24
_MAX_STORED = 65535
_END_OF_BLOCK = 256

# Length code table (RFC 1951 §3.2.5): code -> (extra bits, base length).
_LENGTH_CODES: List[Tuple[int, int]] = [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10),
    (1, 11), (1, 13), (1, 15), (1, 17), (2, 19), (2, 23), (2, 27), (2, 31),
    (3, 35), (3, 43), (3, 51), (3, 59), (4, 67), (4, 83), (4, 99), (4, 115),
    (5, 131), (5, 163), (5, 195), (5, 227), (0, 258),
]

# Distance code table: code -> (extra bits, base distance).
_DIST_CODES: List[Tuple[int, int]] = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 7), (2, 9), (2, 13),
    (3, 17), (3, 25), (4, 33), (4, 49), (5, 65), (5, 97), (6, 129),
    (6, 193), (7, 257), (7, 385), (8, 513), (8, 769), (9, 1025),
    (9, 1537), (10, 2049), (10, 3073), (11, 4097), (11, 6145),
    (12, 8193), (12, 12289), (13, 16385), (13, 24577),
]

# Order in which code-length-code lengths are transmitted (§3.2.7).
_CLC_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1,
              15)


def _build_length_lookup() -> List[Tuple[int, int, int]]:
    table: List[Tuple[int, int, int]] = [(0, 0, 0)] * (_MAX_MATCH + 1)
    for code_index in range(len(_LENGTH_CODES) - 1, -1, -1):
        extra, base = _LENGTH_CODES[code_index]
        for length in range(base, _MAX_MATCH + 1):
            if table[length] == (0, 0, 0):
                table[length] = (257 + code_index, extra, length - base)
    return table


#: direct lookup table: length -> (code, extra bits, extra value)
_LENGTH_LOOKUP = _build_length_lookup()
#: distance -> its code (index 0 unused); the codes tile 1..32768 in
#: order, one run of ``1 << extra`` distances per code
_DIST_CODE = b"".join(
    [b"\0"] + [bytes([code]) * (1 << extra)
               for code, (extra, _) in enumerate(_DIST_CODES)])


def _fixed_literal_lengths() -> List[int]:
    lengths = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
    return lengths


# -- LZ77 ---------------------------------------------------------------------

# A token is either (-1, byte) for a literal or (length, distance).
Token = Tuple[int, int]


def _lz77_tokens(data: bytes, lazy: bool) -> List[Token]:
    """Greedy (or one-step lazy) LZ77 with hash-chain match search.

    The match search is zlib's: at each position walk the chain of
    earlier positions that start with the same three bytes, nearest
    first, at most ``max_chain`` of them and none beyond the window;
    the longest match wins and ties keep the nearest.  Which positions
    are on a chain depends on ``data`` alone, so the chains are built
    up front as one ascending list per trigram (``rank`` is a
    position's index in its list) and a walk is a slice of that list.

    Constant-factor tricks that leave the chosen tokens identical:

    * a candidate is compared at all only if it can beat the best so
      far, i.e. it agrees at offsets ``best_len`` and ``best_len - 1``;
    * a match is extended by XOR-ing the two slices as ints — the
      number of leading zero bytes is the match length — not by a
      byte loop, and over ``_SHORT_COMPARE`` bytes first: nearly every
      match is shorter, so the ``limit``-byte compare is paid only by
      a candidate that agrees on all of them;
    * when the lazy look-ahead at ``pos + 1`` wins, its result is kept
      for the next round instead of being searched for again.
    """
    n = len(data)
    max_chain = 64 if lazy else 32
    chains: dict = {}    # trigram -> ascending positions starting with it
    rank = [0] * n       # position -> its index in its chain
    for pos in range(n - 2):
        trigram = data[pos:pos + 3]
        chain = chains.get(trigram)
        if chain is None:
            chains[trigram] = [pos]
        else:
            rank[pos] = len(chain)
            chain.append(pos)
    from_bytes = int.from_bytes

    def find_match(pos: int) -> Token:
        """Best (length, distance) at ``pos``; (0, 0) if none."""
        index = rank[pos]
        if not index:           # first of its trigram, or < 3 bytes left
            return 0, 0
        width = _SHORT_COMPARE if pos + _SHORT_COMPARE <= n else n - pos
        head = data[pos:pos + width]
        short = from_bytes(head, "big")
        floor = pos - _WINDOW_SIZE
        # Every candidate shares the trigram, so any of them beats 2.
        best_len = _MIN_MATCH - 1
        best_dist = 0
        last = head[best_len]
        before_last = head[best_len - 1]
        low = index - max_chain
        for candidate in reversed(chains[head[:3]][low if low > 0 else 0:
                                                   index]):
            if (data[candidate + best_len] == last and
                    data[candidate + best_len - 1] == before_last):
                if candidate < floor:
                    break       # so is every later (farther) candidate
                diff = short ^ from_bytes(
                    data[candidate:candidate + width], "big")
                if diff:
                    length = width - (diff.bit_length() + 7) // 8
                else:
                    limit = _MAX_MATCH if pos + _MAX_MATCH <= n else n - pos
                    diff = (from_bytes(data[pos:pos + limit], "big")
                            ^ from_bytes(data[candidate:candidate + limit],
                                         "big"))
                    length = limit - (diff.bit_length() + 7) // 8
                    if length == limit:
                        return length, pos - candidate
                if length > best_len:
                    best_len = length
                    best_dist = pos - candidate
                    last = data[pos + length]
                    before_last = data[pos + length - 1]
        if best_dist:
            return best_len, best_dist
        return 0, 0

    tokens: List[Token] = []
    append = tokens.append
    pos = 0
    carried: Optional[Token] = None   # a look-ahead that won, kept
    while pos < n:
        length, distance = carried or find_match(pos)
        carried = None
        if lazy and 0 < length < _MAX_MATCH:
            # Lazy matching: if the next position matches longer, emit
            # a literal now and take the longer match next round.
            ahead = find_match(pos + 1)
            if ahead[0] > length:
                carried = ahead
                length = 0
        if length:
            append((length, distance))
            pos += length
        else:
            append((-1, data[pos]))
            pos += 1
    return tokens


# -- block emission ------------------------------------------------------------


def _emit_stored(writer: BitWriter, data: bytes, final: bool) -> None:
    offset = 0
    first = True
    while first or offset < len(data):
        first = False
        chunk = data[offset:offset + _MAX_STORED]
        offset += len(chunk)
        is_last = final and offset >= len(data)
        writer.write_bits(1 if is_last else 0, 1)
        writer.write_bits(0, 2)                  # BTYPE=00
        writer.align_to_byte()
        writer.write_bytes(len(chunk).to_bytes(2, "little"))
        writer.write_bytes((len(chunk) ^ 0xFFFF).to_bytes(2, "little"))
        writer.write_bytes(chunk)


def _emit_tokens(writer: BitWriter, tokens: List[Token],
                 lit_lengths: List[int], lit_codes: List[int],
                 dist_lengths: List[int], dist_codes: List[int]) -> None:
    # Bit-reverse each code once per block, not once per occurrence,
    # and merge each match length's code with its extra bits likewise.
    lit = [(reverse_bits(code, nbits), nbits)
           for code, nbits in zip(lit_codes, lit_lengths)]
    dist = [(reverse_bits(code, nbits), nbits, nbits + extra, base)
            for code, nbits, (extra, base)
            in zip(dist_codes, dist_lengths, _DIST_CODES)]
    by_length = [(lit[code][0] | extra_val << lit[code][1],
                  lit[code][1] + extra)
                 for code, extra, extra_val in _LENGTH_LOOKUP]
    dist_code = _DIST_CODE
    pieces = []
    append = pieces.append
    for length, value in tokens:
        if length < 0:
            append(lit[value])
        else:
            append(by_length[length])
            bits, nbits, total, base = dist[dist_code[value]]
            append((bits | (value - base) << nbits, total))
    append(lit[_END_OF_BLOCK])
    writer.write_pieces(pieces)


def _emit_fixed(writer: BitWriter, tokens: List[Token], final: bool) -> None:
    writer.write_bits(1 if final else 0, 1)
    writer.write_bits(1, 2)                      # BTYPE=01
    lit_lengths = _fixed_literal_lengths()
    lit_codes = canonical_codes(lit_lengths)
    dist_lengths = [5] * 30
    dist_codes = canonical_codes(dist_lengths)
    _emit_tokens(writer, tokens, lit_lengths, lit_codes,
                 dist_lengths, dist_codes)


def _rle_code_lengths(lengths: List[int]) -> List[Tuple[int, int, int]]:
    """RLE-encode code lengths with symbols 16/17/18 (§3.2.7).

    Returns (symbol, extra bits, extra value) triples.
    """
    out: List[Tuple[int, int, int]] = []
    i = 0
    n = len(lengths)
    while i < n:
        length = lengths[i]
        j = i
        while j < n and lengths[j] == length:
            j += 1
        run = j - i
        i = j
        if length == 0:
            while run >= 11:
                reps = min(run, 138)
                out.append((18, 7, reps - 11))
                run -= reps
            if run >= 3:
                out.append((17, 3, run - 3))
                run = 0
            out.extend((0, 0, 0) for _ in range(run))
        else:
            out.append((length, 0, 0))
            run -= 1
            while run >= 3:
                reps = min(run, 6)
                out.append((16, 2, reps - 3))
                run -= reps
            out.extend((length, 0, 0) for _ in range(run))
    return out


def _emit_dynamic(writer: BitWriter, tokens: List[Token],
                  final: bool) -> None:
    # Symbol frequencies.
    lit_freq = [0] * 286
    dist_freq = [0] * 30
    lit_freq[_END_OF_BLOCK] = 1
    for length, value in tokens:
        if length < 0:
            lit_freq[value] += 1
        else:
            lit_freq[_LENGTH_LOOKUP[length][0]] += 1
            dist_freq[_DIST_CODE[value]] += 1

    lit_lengths = code_lengths_from_frequencies(lit_freq, 15)
    dist_lengths = code_lengths_from_frequencies(dist_freq, 15)
    # The distance tree must have at least one code even if unused.
    if not any(dist_lengths):
        dist_lengths[0] = 1
    lit_codes = canonical_codes(lit_lengths)
    dist_codes = canonical_codes(dist_lengths)

    hlit = 286
    while hlit > 257 and lit_lengths[hlit - 1] == 0:
        hlit -= 1
    hdist = 30
    while hdist > 1 and dist_lengths[hdist - 1] == 0:
        hdist -= 1

    combined = lit_lengths[:hlit] + dist_lengths[:hdist]
    rle = _rle_code_lengths(combined)

    clc_freq = [0] * 19
    for symbol, _, _ in rle:
        clc_freq[symbol] += 1
    clc_lengths = code_lengths_from_frequencies(clc_freq, 7)
    clc_codes = canonical_codes(clc_lengths)

    hclen = 19
    while hclen > 4 and clc_lengths[_CLC_ORDER[hclen - 1]] == 0:
        hclen -= 1

    writer.write_bits(1 if final else 0, 1)
    writer.write_bits(2, 2)                      # BTYPE=10
    writer.write_bits(hlit - 257, 5)
    writer.write_bits(hdist - 1, 5)
    writer.write_bits(hclen - 4, 4)
    for i in range(hclen):
        writer.write_bits(clc_lengths[_CLC_ORDER[i]], 3)
    for symbol, extra, extra_val in rle:
        writer.write_huffman_code(clc_codes[symbol], clc_lengths[symbol])
        if extra:
            writer.write_bits(extra_val, extra)
    _emit_tokens(writer, tokens, lit_lengths, lit_codes,
                 dist_lengths, dist_codes)


# -- public API -----------------------------------------------------------------


def deflate(data: bytes, level: int = 6) -> bytes:
    """Compress ``data`` into a raw DEFLATE stream."""
    if not 0 <= level <= 9:
        raise ValueError(f"level must be in [0, 9], got {level}")
    data = bytes(data)
    writer = BitWriter()
    if level == 0 or not data:
        _emit_stored(writer, data, final=True)
        return writer.getvalue()
    tokens = _lz77_tokens(data, lazy=level >= 6)
    if level == 1:
        _emit_fixed(writer, tokens, final=True)
    else:
        _emit_dynamic(writer, tokens, final=True)
    return writer.getvalue()


def inflate(data: bytes) -> bytes:
    """Decompress a raw DEFLATE stream."""
    reader = BitReader(bytes(data))
    out = bytearray()
    fixed_lit_decoder: Optional[CanonicalDecoder] = None
    fixed_dist_decoder: Optional[CanonicalDecoder] = None

    while True:
        final = reader.read_bit()
        btype = reader.read_bits(2)
        if btype == 0:
            reader.align_to_byte()
            stored_len = int.from_bytes(reader.read_bytes(2), "little")
            nlen = int.from_bytes(reader.read_bytes(2), "little")
            if stored_len ^ 0xFFFF != nlen:
                raise ValueError("corrupt stored block header")
            out.extend(reader.read_bytes(stored_len))
        elif btype in (1, 2):
            if btype == 1:
                if fixed_lit_decoder is None:
                    fixed_lit_decoder = CanonicalDecoder(
                        _fixed_literal_lengths()
                    )
                    fixed_dist_decoder = CanonicalDecoder([5] * 32)
                lit_decoder = fixed_lit_decoder
                dist_decoder = fixed_dist_decoder
            else:
                lit_decoder, dist_decoder = _read_dynamic_tables(reader)
            _inflate_block(reader, out, lit_decoder, dist_decoder)
        else:
            raise ValueError(f"invalid block type {btype}")
        if final:
            break
    return bytes(out)


def _read_dynamic_tables(reader: BitReader):
    hlit = reader.read_bits(5) + 257
    hdist = reader.read_bits(5) + 1
    hclen = reader.read_bits(4) + 4
    clc_lengths = [0] * 19
    for i in range(hclen):
        clc_lengths[_CLC_ORDER[i]] = reader.read_bits(3)
    clc_decoder = CanonicalDecoder(clc_lengths)

    lengths: List[int] = []
    while len(lengths) < hlit + hdist:
        symbol = clc_decoder.decode(reader)
        if symbol < 16:
            lengths.append(symbol)
        elif symbol == 16:
            if not lengths:
                raise ValueError("repeat code with no previous length")
            reps = 3 + reader.read_bits(2)
            lengths.extend([lengths[-1]] * reps)
        elif symbol == 17:
            reps = 3 + reader.read_bits(3)
            lengths.extend([0] * reps)
        else:
            reps = 11 + reader.read_bits(7)
            lengths.extend([0] * reps)
    if len(lengths) != hlit + hdist:
        raise ValueError("code length table overflow")
    lit_decoder = CanonicalDecoder(lengths[:hlit])
    dist_decoder = CanonicalDecoder(lengths[hlit:])
    return lit_decoder, dist_decoder


def _inflate_block(reader: BitReader, out: bytearray,
                   lit_decoder: CanonicalDecoder,
                   dist_decoder: CanonicalDecoder) -> None:
    """Decode one Huffman-coded block's tokens onto ``out``.

    The reader's window lives in locals until the block ends, topped
    up whenever it holds less than the 48 bits the longest token takes
    (15 + 5 for the length, 15 + 13 for the distance).  Past the end
    of the data it reads as zeros and its count runs negative.
    """
    data, pos = reader._data, reader._pos
    bitbuf, bitcount = reader._bitbuf, reader._bitcount
    lit_table = lit_decoder.table
    lit_mask = len(lit_table) - 1
    dist_table = dist_decoder.table
    dist_mask = len(dist_table) - 1
    from_bytes = int.from_bytes
    append = out.append

    error = None
    while True:     # ``while bitcount >= 0``: 1.5x slower at first on 3.11
        if bitcount < 48:
            if bitcount < 0:
                break
            chunk = data[pos:pos + REFILL_BYTES]
            pos += len(chunk)
            bitbuf |= from_bytes(chunk, "little") << bitcount
            bitcount += len(chunk) << 3
        symbol, nbits = lit_table[bitbuf & lit_mask]
        bitbuf >>= nbits
        bitcount -= nbits
        if symbol < 256:
            append(symbol)
        elif symbol == _END_OF_BLOCK:
            break
        else:
            if symbol > 285:
                error = "invalid literal/length code"
                break
            extra, base = _LENGTH_CODES[symbol - 257]
            length = base + (bitbuf & ((1 << extra) - 1))
            dcode, nbits = dist_table[(bitbuf >> extra) & dist_mask]
            if dcode > 29:
                error = "invalid distance code"
                break
            dextra, dbase = _DIST_CODES[dcode]
            nbits += extra
            distance = dbase + ((bitbuf >> nbits) & ((1 << dextra) - 1))
            nbits += dextra
            bitbuf >>= nbits
            bitcount -= nbits
            if distance > len(out):
                error = "distance beyond window start"
                break
            start = len(out) - distance
            chunk = out[start:start + length]
            if distance < length:
                # The match overlaps itself (RLE-style): it repeats
                # the ``distance`` bytes that exist so far.
                chunk = (chunk * (length // distance + 1))[:length]
            out += chunk
    # Zero padding decodes to anything: truncation explains an error first.
    if bitcount < 0:
        raise EOFError("bit stream exhausted")
    if error:
        raise ValueError(error)
    reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount


def compression_ratio(data: bytes) -> float:
    """Original size / compressed size for ``data`` at level 6."""
    if not data:
        return 1.0
    return len(data) / len(deflate(data, 6))
