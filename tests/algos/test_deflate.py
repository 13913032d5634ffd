"""DEFLATE correctness, including cross-validation against zlib."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import BitWriter, compression_ratio, deflate, inflate
from repro.algos.deflate import (
    _CLC_ORDER,
    _DIST_CODE,
    _DIST_CODES,
    _LENGTH_CODES,
    _LENGTH_LOOKUP,
    _lz77_tokens,
)


def _zlib_raw_compress(data: bytes, level: int = 6,
                       strategy: int = zlib.Z_DEFAULT_STRATEGY) -> bytes:
    compressor = zlib.compressobj(level, zlib.DEFLATED, -15, 8, strategy)
    return compressor.compress(data) + compressor.flush()


CASES = [
    b"",
    b"a",
    b"ab",
    b"aaa",
    b"abcabcabcabc" * 100,
    b"the quick brown fox jumps over the lazy dog " * 50,
    bytes(range(256)) * 4,
    b"\x00" * 100_000,                      # long zero run (RLE matches)
]


@pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
@pytest.mark.parametrize("level", [0, 1, 6])
class TestRoundtrip:
    def test_self_roundtrip(self, data, level):
        assert inflate(deflate(data, level)) == data

    def test_zlib_decodes_our_output(self, data, level):
        assert zlib.decompress(deflate(data, level), wbits=-15) == data


@pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
@pytest.mark.parametrize("zlevel", [1, 6, 9])
def test_we_decode_zlib_output(data, zlevel):
    assert inflate(_zlib_raw_compress(data, zlevel)) == data


class TestRandomData:
    def test_incompressible_data_roundtrips(self):
        rng = random.Random(42)
        data = bytes(rng.randrange(256) for _ in range(20_000))
        for level in (0, 1, 6):
            assert inflate(deflate(data, level)) == data

    def test_structured_data_compresses_well(self):
        data = (b"timestamp=1699999999 level=INFO msg=request served\n"
                * 500)
        assert compression_ratio(data) > 10.0

    def test_random_data_does_not_explode(self):
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(10_000))
        # Dynamic Huffman on noise should cost at most a few percent.
        assert len(deflate(data, 6)) < len(data) * 1.05


def _overlap_cases():
    """Inputs whose matches reach into themselves (distance < length),
    sit exactly on the boundary (distance == length) or just past it."""
    cases = {}
    for period in (1, 2, 3, 7, 8, 9, 31, 257, 258, 259):
        unit = bytes((17 * i + period) % 251 for i in range(period))
        # ... a whole number of periods, and cut mid-period
        cases[f"period{period}"] = unit * (600 // period + 2)
        cases[f"period{period}+cut"] = (unit * (600 // period + 2)
                                        + unit[:period // 2 + 1])
    cases["twice"] = b"0123456789abcdef" * 2           # distance == length
    cases["twice+1"] = b"0123456789abcdef" * 2 + b"0"  # ... + 1 == length
    cases["run-then-text"] = b"\x00" * 300 + b"abcabc" + b"\x00" * 5
    return cases


OVERLAP_CASES = _overlap_cases()


@pytest.mark.parametrize("name", sorted(OVERLAP_CASES))
class TestOverlappingMatches:
    """``inflate`` copies a match by slice, and by repeating its period
    when it overlaps itself; both directions against zlib."""

    def test_we_decode_zlib_output(self, name):
        data = OVERLAP_CASES[name]
        for zlevel in (1, 6, 9):
            assert inflate(_zlib_raw_compress(data, zlevel)) == data

    def test_zlib_decodes_our_output(self, name):
        data = OVERLAP_CASES[name]
        for level in (1, 6, 9):
            compressed = deflate(data, level)
            assert zlib.decompress(compressed, wbits=-15) == data
            assert inflate(compressed) == data


def _reference_tokens(data: bytes, lazy: bool):
    """The LZ77 search as specified, with nothing clever in it.

    At each position: the earlier positions starting with the same
    three bytes, nearest first, at most ``max_chain`` and none farther
    than the window; longest match wins, ties keep the nearest; with
    ``lazy``, a strictly longer match at ``pos + 1`` turns ``pos`` into
    a literal.
    """
    n = len(data)
    max_chain = 64 if lazy else 32

    def find(pos):
        best = (0, 0)
        if pos + 3 > n:
            return best
        same = [c for c in range(pos - 1, -1, -1)
                if data[c:c + 3] == data[pos:pos + 3]][:max_chain]
        for candidate in same:
            if pos - candidate > 32 * 1024:
                break
            length = 0
            while (length < 258 and pos + length < n
                   and data[candidate + length] == data[pos + length]):
                length += 1
            if length > best[0]:
                best = (length, pos - candidate)
        return best

    tokens, pos = [], 0
    while pos < n:
        length, distance = find(pos)
        if lazy and 0 < length < 258 and find(pos + 1)[0] > length:
            length = 0
        if length:
            tokens.append((length, distance))
            pos += length
        else:
            tokens.append((-1, data[pos]))
            pos += 1
    return tokens


def _wide_compare_tokens(data: bytes, lazy: bool):
    """``_lz77_tokens`` as it was before the 24-byte-first compare:
    the same chains and the same walk, but every candidate that passes
    the two-byte reject is compared over the full ``limit`` bytes.
    Unlike :func:`_reference_tokens` it is fast enough for whole pages.
    """
    n = len(data)
    max_chain = 64 if lazy else 32
    chains, rank = {}, [0] * n
    for pos in range(n - 2):
        chain = chains.setdefault(data[pos:pos + 3], [])
        rank[pos] = len(chain)
        chain.append(pos)

    def find_match(pos):
        index = rank[pos]
        if not index:
            return 0, 0
        limit = min(258, n - pos)
        target = int.from_bytes(data[pos:pos + limit], "big")
        best_len, best_dist = 2, 0
        chain = chains[data[pos:pos + 3]]
        for candidate in reversed(chain[max(index - max_chain, 0):index]):
            if (data[candidate + best_len] == data[pos + best_len]
                    and data[candidate + best_len - 1]
                    == data[pos + best_len - 1]):
                if candidate < pos - 32 * 1024:
                    break
                diff = target ^ int.from_bytes(
                    data[candidate:candidate + limit], "big")
                length = limit - (diff.bit_length() + 7) // 8
                if length > best_len:
                    if length == limit:
                        return length, pos - candidate
                    best_len, best_dist = length, pos - candidate
        return (best_len, best_dist) if best_dist else (0, 0)

    tokens, pos, carried = [], 0, None
    while pos < n:
        length, distance = carried or find_match(pos)
        carried = None
        if lazy and 0 < length < 258:
            ahead = find_match(pos + 1)
            if ahead[0] > length:
                carried, length = ahead, 0
        if length:
            tokens.append((length, distance))
            pos += length
        else:
            tokens.append((-1, data[pos]))
            pos += 1
    return tokens


def _repeats(unit_sizes):
    """Random units, each later repeated whole, in part and extended,
    so matches of every length up to the unit's (and past 258) occur."""
    def build(seed):
        rng = random.Random(seed)
        units = [rng.randbytes(size) for size in unit_sizes]
        parts = []
        for _ in range(40):
            unit = rng.choice(units)
            parts.append(unit[:rng.randint(1, len(unit))]
                         * rng.choice((1, 1, 2)))
            parts.append(rng.randbytes(rng.randint(0, 3)))
        return b"".join(parts)
    return st.integers(0, 2 ** 32).map(build)


class TestTokenStream:
    """Speed-ups of the match search must not change a single token."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.one_of(_repeats([23, 24, 25]), _repeats([5, 40, 300]),
                          _repeats([258, 259, 600])),
           cut=st.integers(0, 30), lazy=st.booleans())
    def test_property_short_compare_equals_wide_compare(self, data, cut,
                                                        lazy):
        data = data[:len(data) - cut]       # ``limit`` < 24 at the tail
        assert _lz77_tokens(data, lazy) == _wide_compare_tokens(data, lazy)

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("length", [3, 23, 24, 25, 257, 258, 259, 700])
    @pytest.mark.parametrize("tail", [0, 1, 5, 23, 24, 40])
    def test_match_of_exactly_this_length(self, length, tail, lazy):
        # One earlier copy, ``length`` bytes long, then a mismatch,
        # ``tail`` bytes before the data ends.
        rng = random.Random(length * 100 + tail)
        unit = rng.randbytes(length)
        data = (unit + b"\x00" + unit
                + bytes(rng.randrange(2, 256) for _ in range(tail)))
        tokens = _lz77_tokens(data, lazy)
        assert tokens == _wide_compare_tokens(data, lazy)
        if length < 40:
            assert tokens == _reference_tokens(data, lazy)
        assert (min(length, 258), length + 1) in tokens

    def test_corpus_page_and_long_runs(self):
        from repro.workloads import TextCorpus
        page = TextCorpus(seed=3).generate(20_000)
        for data in (page, b"\x00" * 5000, b"ab" * 3000 + b"a"):
            for lazy in (False, True):
                assert (_lz77_tokens(data, lazy)
                        == _wide_compare_tokens(data, lazy))

    @settings(max_examples=60, deadline=None)
    @given(data=st.one_of(
               st.binary(max_size=300),
               st.text(alphabet="ab", max_size=700).map(str.encode),
               st.text(alphabet="abcdefgh ", max_size=500).map(str.encode)),
           lazy=st.booleans())
    def test_property_equals_reference_search(self, data, lazy):
        assert _lz77_tokens(data, lazy) == _reference_tokens(data, lazy)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_chain_limit_and_ties(self, lazy):
        # > 64 earlier occurrences of every trigram: the chain limit
        # decides which candidates are seen at all.
        rng = random.Random(5)
        data = bytes(rng.choice(b"ab") for _ in range(1500))
        assert _lz77_tokens(data, lazy) == _reference_tokens(data, lazy)

    def test_window_limit(self):
        # The only earlier copy is just inside / just outside 32 KiB.
        rng = random.Random(9)
        marker = b"needle-in-the-window"
        for gap in (32 * 1024 - len(marker), 32 * 1024 + 1):
            filler = bytes(rng.randrange(128, 256) for _ in range(gap))
            data = marker + filler + marker
            tokens = _lz77_tokens(data, True)
            far = [t for t in tokens if t[0] > 0 and t[1] > 32 * 1024]
            assert not far
            found = (len(marker), len(marker) + gap) in tokens
            assert found == (len(marker) + gap <= 32 * 1024)


class TestStoredBlocks:
    def test_level0_emits_stored_blocks(self):
        data = b"hello world"
        compressed = deflate(data, 0)
        # BTYPE=00: the first byte's bits 1-2 are zero (BFINAL=1).
        assert compressed[0] & 0b110 == 0
        assert data in compressed      # stored verbatim

    def test_stored_block_splitting_beyond_64k(self):
        data = bytes([i % 251 for i in range(200_000)])
        assert inflate(deflate(data, 0)) == data

    def test_empty_input_valid_stream(self):
        compressed = deflate(b"", 6)
        assert zlib.decompress(compressed, wbits=-15) == b""


class TestErrors:
    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            deflate(b"x", level=17)

    def test_corrupt_stored_header_detected(self):
        compressed = bytearray(deflate(b"hello world hello", 0))
        compressed[2] ^= 0xFF          # clobber LEN
        with pytest.raises((ValueError, EOFError)):
            inflate(bytes(compressed))

    def test_truncated_stream_detected(self):
        compressed = deflate(b"some reasonably long input " * 20, 6)
        with pytest.raises((ValueError, EOFError)):
            inflate(compressed[:len(compressed) // 2])


def _oversubscribed_dynamic_block() -> bytes:
    """A final dynamic block whose 257 literal/length codes are all 8
    bits long — one more than 8 bits can tell apart."""
    writer = BitWriter()
    writer.write_bits(1, 1)                         # BFINAL
    writer.write_bits(2, 2)                         # BTYPE=10
    writer.write_bits(0, 5)                         # HLIT: 257 codes
    writer.write_bits(0, 5)                         # HDIST: 1 code
    writer.write_bits(18 - 4, 4)                    # HCLEN: up to "1"
    for symbol in _CLC_ORDER[:18]:
        # code lengths 1 and 8 are all the header uses: 1 bit each,
        # canonical codes "0" and "1"
        writer.write_bits(1 if symbol in (1, 8) else 0, 3)
    for _ in range(257):
        writer.write_bits(1, 1)                     # length 8
    writer.write_bits(0, 1)                         # the distance: length 1
    writer.write_bits(0, 16)                        # "data"
    return writer.getvalue()


class TestCorruptStreams:
    def test_oversubscribed_literal_table_is_rejected_as_zlib_does(self):
        block = _oversubscribed_dynamic_block()
        with pytest.raises(zlib.error):
            zlib.decompress(block, -15)
        with pytest.raises(ValueError, match="over-subscribed"):
            inflate(block)

    @pytest.mark.parametrize("make", [
        lambda data: deflate(data, 6),
        lambda data: deflate(data, 1),
        lambda data: deflate(data, 0),
        lambda data: _zlib_raw_compress(data, 9),
    ], ids=["dynamic", "fixed", "stored", "zlib9"])
    def test_every_truncation_is_eof(self, make):
        stream = make(b"some reasonably long input, " * 12 + b"the end")
        assert len(stream) > 30
        for cut in range(len(stream)):
            with pytest.raises(EOFError):
                inflate(stream[:cut])

    def test_symbols_the_fixed_code_has_but_deflate_does_not(self):
        # literal/length 286 is the fixed code 11000110; distance 30
        # is 11110.  Both are ValueErrors, as a bad stream should be.
        for bits, what in (("11000110", "literal/length"),
                           ("0000001" + "11110", "distance")):
            writer = BitWriter()
            writer.write_bits(1, 1)
            writer.write_bits(1, 2)                 # BTYPE=01
            for bit in bits:
                writer.write_bits(int(bit), 1)
            writer.write_bits(0, 32)
            with pytest.raises(ValueError, match=what):
                inflate(writer.getvalue())


@settings(max_examples=40, deadline=None)
@given(data=st.one_of(st.binary(max_size=4096), _repeats([5, 40, 300])),
       level=st.sampled_from([0, 1, 6, 9]),
       strategy=st.sampled_from([zlib.Z_DEFAULT_STRATEGY, zlib.Z_FIXED,
                                 zlib.Z_HUFFMAN_ONLY]))
def test_property_we_decode_every_zlib_block_type(data, level, strategy):
    # level 0 gives stored blocks, Z_FIXED fixed-Huffman ones
    assert inflate(_zlib_raw_compress(data, level, strategy)) == data


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=4096),
       level=st.sampled_from([0, 1, 6]))
def test_property_roundtrip(data, level):
    assert inflate(deflate(data, level)) == data


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=4096))
def test_property_zlib_interop(data):
    assert zlib.decompress(deflate(data, 6), wbits=-15) == data
    assert inflate(_zlib_raw_compress(data)) == data


@settings(max_examples=20, deadline=None)
@given(text=st.text(alphabet="abcdef ", min_size=100, max_size=2000))
def test_property_repetitive_text_shrinks(text):
    data = text.encode()
    # A 7-symbol alphabet must compress (entropy < 3 bits/byte).
    assert len(deflate(data, 6)) < len(data)


def _scan_and_test_lookup(codes, limit, first_symbol):
    """The original builder: last code first, claim every free slot."""
    table = [(0, 0, 0)] * (limit + 1)
    for code_index in range(len(codes) - 1, -1, -1):
        extra, base = codes[code_index]
        for value in range(base, limit + 1):
            if table[value] == (0, 0, 0):
                table[value] = (first_symbol + code_index, extra,
                                value - base)
    return table


class TestCodeLookupTables:
    def test_distance_table_equals_scan_and_test_oracle(self):
        assert isinstance(_DIST_CODE, bytes)
        assert len(_DIST_CODE) == 32 * 1024 + 1
        assert list(_DIST_CODE) == [code for code, _, _ in
                                    _scan_and_test_lookup(
                                        _DIST_CODES, 32 * 1024, 0)]

    def test_length_table_equals_scan_and_test_oracle(self):
        assert _LENGTH_LOOKUP == _scan_and_test_lookup(
            _LENGTH_CODES, 258, 257)

    def test_every_distance_round_trips_through_its_code(self):
        for distance in range(1, 32 * 1024 + 1):
            extra, base = _DIST_CODES[_DIST_CODE[distance]]
            assert 0 <= distance - base < (1 << extra)

    def test_every_length_round_trips_through_its_code(self):
        for length in range(3, 258 + 1):
            symbol, extra, value = _LENGTH_LOOKUP[length]
            code_extra, base = _LENGTH_CODES[symbol - 257]
            assert code_extra == extra and 0 <= value < (1 << extra)
            assert base + value == length
        assert _LENGTH_LOOKUP[258] == (285, 0, 0)
