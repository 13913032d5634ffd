"""Content-defined chunking and dedup index tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import Chunk, DedupIndex, chunk_stream, crc32, dedup_ratio
from repro.algos import dedup


def _random_bytes(seed: int, size: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(size))


class TestChunking:
    def test_chunks_cover_stream_exactly(self):
        data = _random_bytes(1, 50_000)
        chunks = chunk_stream(data)
        assert chunks[0].offset == 0
        for previous, current in zip(chunks, chunks[1:]):
            assert current.offset == previous.offset + previous.length
        assert chunks[-1].offset + chunks[-1].length == len(data)

    def test_sizes_respect_bounds(self):
        data = _random_bytes(2, 100_000)
        chunks = chunk_stream(data, avg_size=4096, min_size=1024,
                              max_size=16384)
        for chunk in chunks[:-1]:      # final chunk may be short
            assert 1024 <= chunk.length <= 16384

    def test_average_size_near_target(self):
        data = _random_bytes(3, 400_000)
        chunks = chunk_stream(data, avg_size=4096)
        average = len(data) / len(chunks)
        assert 2000 < average < 9000

    def test_chunking_is_deterministic(self):
        data = _random_bytes(4, 30_000)
        assert chunk_stream(data) == chunk_stream(data)

    def test_boundaries_survive_prefix_insertion(self):
        # The defining property of content-defined chunking: most
        # boundaries stay put when bytes are inserted at the front.
        data = _random_bytes(5, 120_000)
        shifted = _random_bytes(99, 700) + data
        original = {c.fingerprint for c in chunk_stream(data)}
        after = {c.fingerprint for c in chunk_stream(shifted)}
        shared = len(original & after)
        assert shared >= 0.7 * len(original)

    def test_empty_input_yields_no_chunks(self):
        assert chunk_stream(b"") == []

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            chunk_stream(b"x", avg_size=100, min_size=200, max_size=300)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            Chunk(offset=-1, length=10, fingerprint=0)
        with pytest.raises(ValueError):
            Chunk(offset=0, length=0, fingerprint=0)


def _per_byte_chunks(data, avg_size=4096, min_size=1024, max_size=16384):
    """``chunk_stream`` as it was: the gear hash stepped over every
    byte of every chunk from its first, one index at a time."""
    mask_bits = max(1, avg_size.bit_length() - 1)
    mask = ((1 << mask_bits) - 1) << (64 - mask_bits)
    chunks, start, state = [], 0, 0
    for pos in range(1, len(data) + 1):
        state = ((state << 1) + dedup._GEAR[data[pos - 1]]) & (2 ** 64 - 1)
        size = pos - start
        if size >= min_size and (state & mask == 0 or size >= max_size):
            chunks.append(Chunk(start, size, crc32(data[start:pos])))
            start, state = pos, 0
    if start < len(data):
        chunks.append(Chunk(start, len(data) - start, crc32(data[start:])))
    return chunks


class _CountingGear(tuple):
    """The gear table, counting the hash steps that read it."""

    reads = 0

    def __getitem__(self, byte):
        self.reads += 1
        return tuple.__getitem__(self, byte)


class TestLookbackEqualsPerByte:
    """Hashing only the 64 bytes the hash remembers moves no boundary."""

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.tuples(st.integers(1, 200), st.integers(0, 300),
                           st.integers(0, 600)),
           data=st.one_of(st.binary(max_size=6000),
                          st.integers(0, 6000).map(bytes),
                          st.integers(0, 2 ** 32).map(
                              lambda seed: _random_bytes(seed, 5000))))
    def test_property_same_chunks(self, sizes, data):
        min_size = sizes[0]                 # below and above 64
        avg_size = min_size + sizes[1]
        max_size = avg_size + sizes[2]      # zeros only ever cut here
        assert (chunk_stream(data, avg_size, min_size, max_size)
                == _per_byte_chunks(data, avg_size, min_size, max_size))

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 1023, 1024, 1025,
                                      16_384, 16_385, 70_000])
    def test_default_sizes_at_the_edges(self, size):
        for data in (_random_bytes(size, size), bytes(size)):
            assert chunk_stream(data) == _per_byte_chunks(data)

    def test_hash_steps_skip_each_chunks_head(self, monkeypatch):
        data = _random_bytes(11, 65_536)
        gear = _CountingGear(dedup._GEAR)
        monkeypatch.setattr(dedup, "_GEAR", gear)
        chunks = chunk_stream(data)
        assert len(chunks) > 8
        assert gear.reads <= len(data) - (len(chunks) - 1) * (1024 - 64)


class TestDedupIndex:
    def test_repeated_stream_deduplicates(self):
        block = _random_bytes(6, 40_000)
        index = DedupIndex()
        index.ingest(block)
        index.ingest(block)            # identical content again
        assert index.ratio() > 1.9
        assert index.unique_bytes < index.total_bytes

    def test_unique_streams_do_not_dedup(self):
        index = DedupIndex()
        index.ingest(_random_bytes(7, 40_000))
        index.ingest(_random_bytes(8, 40_000))
        assert index.ratio() == pytest.approx(1.0, abs=0.05)

    def test_byte_accounting_consistent(self):
        index = DedupIndex()
        data = _random_bytes(9, 30_000)
        duplicates = sum(chunk.length for chunk, duplicate
                         in index.ingest(data + data) if duplicate)
        assert index.unique_bytes + duplicates == index.total_bytes
        assert index.total_bytes == 2 * len(data)

    def test_empty_index_ratio_is_one(self):
        assert DedupIndex().ratio() == 1.0

    def test_one_shot_helper(self):
        block = _random_bytes(10, 40_000)
        assert dedup_ratio(block * 3) > 2.0


@settings(max_examples=25, deadline=None)
@given(data=st.binary(min_size=0, max_size=20_000))
def test_property_chunks_partition_input(data):
    chunks = chunk_stream(data)
    assert sum(c.length for c in chunks) == len(data)
    position = 0
    for chunk in chunks:
        assert chunk.offset == position
        position += chunk.length
