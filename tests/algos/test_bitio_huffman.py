"""Bit I/O and the table-driven Huffman decoder.

``_BitAtATimeDecoder`` is the decoder as it was before the lookup
table: one bit read and one dict probe per code bit.  It stays here as
the oracle the table is compared against.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import (
    BitReader,
    BitWriter,
    CanonicalDecoder,
    canonical_codes,
    code_lengths_from_frequencies,
)


class _BitAtATimeDecoder:
    def __init__(self, lengths):
        codes = canonical_codes(lengths)
        self._table = {(length, codes[symbol]): symbol
                       for symbol, length in enumerate(lengths) if length}
        self._max_len = max(lengths)

    def decode(self, reader):
        code = length = 0
        while True:
            code = (code << 1) | reader.read_bit()
            length += 1
            symbol = self._table.get((length, code))
            if symbol is not None:
                return symbol
            if length >= self._max_len:
                raise ValueError("invalid Huffman code")


_PIECES = st.lists(
    st.integers(0, 64).flatmap(
        lambda width: st.tuples(st.integers(0, (1 << width) - 1),
                                st.just(width))),
    max_size=200)


class TestBitWriter:
    @pytest.mark.parametrize("nbits", [1, 8, 62, 63, 64, 65, 100])
    def test_write_bits_checks_its_range_at_every_width(self, nbits):
        BitWriter().write_bits((1 << nbits) - 1, nbits)
        with pytest.raises(ValueError):
            BitWriter().write_bits(1 << nbits, nbits)

    @settings(max_examples=60, deadline=None)
    @given(pieces=_PIECES, lead=st.integers(0, 7))
    def test_write_pieces_round_trips_through_bit_reader(self, pieces,
                                                         lead):
        writer = BitWriter()
        writer.write_bits(0, lead)          # start off a byte boundary
        writer.write_pieces(pieces)
        one_by_one = BitWriter()
        one_by_one.write_bits(0, lead)
        for value, nbits in pieces:
            one_by_one.write_bits(value, nbits)
        assert writer.getvalue() == one_by_one.getvalue()
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(lead) == 0
        assert [(reader.read_bits(nbits), nbits)
                for _, nbits in pieces] == pieces


class TestBitReader:
    def test_bytes_after_bits_come_from_the_right_offset(self):
        # The window holds far more than the bits asked for; aligning
        # and reading bytes must hand back what it buffered.
        data = bytes(range(200))
        reader = BitReader(data)
        assert reader.read_bits(3) == 0
        reader.align_to_byte()
        assert reader.read_bytes(5) == data[1:6]
        assert reader.read_bits(8) == 6
        assert reader.read_bytes(190) == data[7:197]
        assert not reader.exhausted
        assert reader.read_bits(24) == int.from_bytes(data[197:], "little")
        assert reader.exhausted

    def test_unaligned_read_bytes_is_refused(self):
        reader = BitReader(b"\xff\xff")
        reader.read_bits(3)
        with pytest.raises(ValueError):
            reader.read_bytes(1)

    def test_peek_pads_with_zeros_and_skip_stops_at_the_end(self):
        reader = BitReader(b"\x05")
        assert reader.peek_bits(15) == 5
        reader.skip_bits(8)
        with pytest.raises(EOFError):
            reader.skip_bits(1)
        with pytest.raises(EOFError):
            BitReader(b"\x05").read_bits(9)


class TestCanonicalDecoder:
    @pytest.mark.parametrize("lengths", [
        [1, 1, 1],              # over-subscribed: three 1-bit codes
        [1, 2, 2, 2],
        [2, 2],                 # incomplete, and not a single code
        [1, 2, 0, 3],
        [0, 0],
        [],
    ])
    def test_invalid_code_length_sets_are_rejected(self, lengths):
        with pytest.raises(ValueError):
            CanonicalDecoder(lengths)

    def test_a_single_code_is_accepted_and_its_gaps_are_errors(self):
        decoder = CanonicalDecoder([0, 1])      # the lone-distance case
        assert decoder.decode(BitReader(b"\x00")) == 1
        with pytest.raises(ValueError):
            decoder.decode(BitReader(b"\x01"))

    def test_decoding_past_the_end_is_eof(self):
        decoder = CanonicalDecoder([2, 2, 2, 2])
        reader = BitReader(b"\x00")
        reader.read_bits(7)
        with pytest.raises(EOFError):
            decoder.decode(reader)

    @settings(max_examples=60, deadline=None)
    @given(frequencies=st.lists(st.integers(0, 1000), min_size=2,
                                max_size=286),
           max_length=st.sampled_from([7, 9, 15]),
           seed=st.integers(0, 2 ** 32))
    def test_table_decodes_what_bit_at_a_time_decodes(
            self, frequencies, max_length, seed):
        if sum(1 for f in frequencies if f) < 2:
            frequencies = frequencies + [1, 1]
        if sum(1 for f in frequencies if f) > 1 << max_length:
            max_length = 15
        lengths = code_lengths_from_frequencies(frequencies, max_length)
        stream = random.Random(seed).randbytes(300)
        table, oracle = BitReader(stream), BitReader(stream)
        fast, slow = CanonicalDecoder(lengths), _BitAtATimeDecoder(lengths)
        # a complete code decodes any bits; stop short of the ragged end
        for _ in range(300 * 8 // max_length - 1):
            assert fast.decode(table) == slow.decode(oracle)
