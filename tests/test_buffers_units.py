"""Tests for the Buffer abstraction and unit helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import RealBuffer, SynthBuffer, as_buffer
from repro.units import (
    GiB,
    KiB,
    MiB,
    PAGE_SIZE,
    fmt_bytes,
    fmt_time,
)


class TestRealBuffer:
    def test_size_and_fingerprint(self):
        buffer = RealBuffer(b"hello")
        assert buffer.size == 5
        import zlib
        assert buffer.fingerprint() == zlib.crc32(b"hello")

    def test_slice(self):
        buffer = RealBuffer(b"abcdefgh")
        assert buffer.slice(2, 3).data == b"cde"

    def test_slice_bounds(self):
        buffer = RealBuffer(b"abc")
        with pytest.raises(ValueError):
            buffer.slice(1, 5)
        with pytest.raises(ValueError):
            buffer.slice(-1, 1)

    def test_equality_and_hash(self):
        assert RealBuffer(b"x") == RealBuffer(b"x")
        assert hash(RealBuffer(b"x")) == hash(RealBuffer(b"x"))
        assert RealBuffer(b"x") != RealBuffer(b"y")

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            RealBuffer("not bytes")

    def test_accepts_bytearray_and_memoryview(self):
        assert RealBuffer(bytearray(b"ab")).data == b"ab"
        assert RealBuffer(memoryview(b"ab")).data == b"ab"


class TestSynthBuffer:
    def test_basic_properties(self):
        buffer = SynthBuffer(1000, compress_ratio=4.0, label="pages")
        assert buffer.size == 1000
        assert buffer.compress_ratio == 4.0
        assert buffer.label == "pages"

    def test_prefix_slice_keeps_label(self):
        buffer = SynthBuffer(100, label="header-json")
        assert buffer.slice(0, 50).label == "header-json"

    def test_interior_slice_marks_offset(self):
        buffer = SynthBuffer(100, label="x")
        assert buffer.slice(10, 50).label == "x[10:]"

    def test_with_size_derives_label(self):
        buffer = SynthBuffer(100, label="p")
        derived = buffer.with_size(33, label_suffix=".z")
        assert derived.size == 33
        assert derived.label == "p.z"
        assert derived.compress_ratio == buffer.compress_ratio

    def test_fingerprint_depends_on_identity(self):
        a = SynthBuffer(10, label="a")
        b = SynthBuffer(10, label="b")
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == SynthBuffer(10, label="a").fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthBuffer(-1)
        with pytest.raises(ValueError):
            SynthBuffer(10, compress_ratio=0)

    @settings(max_examples=30, deadline=None)
    @given(size=st.integers(min_value=0, max_value=1 << 30),
           offset=st.integers(min_value=0, max_value=1 << 30),
           length=st.integers(min_value=0, max_value=1 << 30))
    def test_property_slice_size(self, size, offset, length):
        buffer = SynthBuffer(size)
        if offset + length <= size:
            assert buffer.slice(offset, length).size == length
        else:
            with pytest.raises(ValueError):
                buffer.slice(offset, length)


class TestAsBuffer:
    def test_passthrough(self):
        buffer = SynthBuffer(10)
        assert as_buffer(buffer) is buffer

    def test_bytes_become_real(self):
        assert isinstance(as_buffer(b"abc"), RealBuffer)

    def test_int_becomes_synth(self):
        buffer = as_buffer(4096)
        assert isinstance(buffer, SynthBuffer)
        assert buffer.size == 4096
        assert buffer == SynthBuffer(4096)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_buffer([1, 2, 3])


class TestUnits:
    def test_binary_units(self):
        assert KiB == 1024
        assert MiB == 1024 ** 2
        assert GiB == 1024 ** 3
        assert PAGE_SIZE == 8 * KiB

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2048) == "2.00 KiB"
        assert fmt_bytes(3 * MiB) == "3.00 MiB"

    def test_fmt_time(self):
        assert fmt_time(0) == "0 s"
        assert "ns" in fmt_time(5e-9)
        assert "us" in fmt_time(5e-6)
        assert "ms" in fmt_time(5e-3)
        assert fmt_time(2.5) == "2.500 s"
