"""Extent allocator tests, including a hypothesis invariant check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.fs import Extent, ExtentAllocator


class TestExtent:
    def test_end_property(self):
        assert Extent(10, 5).end == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            Extent(-1, 5)
        with pytest.raises(ValueError):
            Extent(0, 0)


class TestAllocator:
    def test_single_extent_when_contiguous(self):
        alloc = ExtentAllocator(100)
        extents = alloc.allocate(40)
        assert extents == [Extent(0, 40)]
        assert alloc.free_blocks == 60

    def test_exhaustion_raises(self):
        alloc = ExtentAllocator(10)
        alloc.allocate(10)
        with pytest.raises(StorageError):
            alloc.allocate(1)

    def test_free_restores_space(self):
        alloc = ExtentAllocator(100)
        extents = alloc.allocate(30)
        alloc.free(extents)
        assert alloc.free_blocks == 100

    def test_coalescing_after_frees(self):
        alloc = ExtentAllocator(100)
        a = alloc.allocate(30)
        b = alloc.allocate(30)
        c = alloc.allocate(30)
        alloc.free(a)
        alloc.free(c)
        assert len(alloc._free) >= 2
        alloc.free(b)                     # bridges a and c
        assert len(alloc._free) == 1
        assert alloc.allocate(100) == [Extent(0, 100)]

    def test_fragmented_allocation_stitches(self):
        alloc = ExtentAllocator(60)
        a = alloc.allocate(20)      # [0,20)
        _b = alloc.allocate(20)     # [20,40)
        c = alloc.allocate(20)      # [40,60)
        alloc.free(a)
        alloc.free(c)
        # Free holes are [0,20) and [40,60); asking 30 must stitch.
        extents = alloc.allocate(30)
        assert sum(e.length for e in extents) == 30
        assert len(extents) == 2

    def test_double_free_detected(self):
        alloc = ExtentAllocator(100)
        extents = alloc.allocate(10)
        alloc.free(extents)
        with pytest.raises(StorageError):
            alloc.free(extents)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtentAllocator(0)
        alloc = ExtentAllocator(10)
        with pytest.raises(ValueError):
            alloc.allocate(0)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.integers(min_value=1, max_value=40),
                    min_size=1, max_size=30))
def test_property_alloc_free_conserves_blocks(ops):
    """Allocating and freeing in arbitrary order never loses blocks."""
    total = 512
    alloc = ExtentAllocator(total)
    live = []
    for i, size in enumerate(ops):
        if size <= alloc.free_blocks:
            live.append(alloc.allocate(size))
        elif live:
            alloc.free(live.pop(i % len(live)))
    in_use = sum(sum(e.length for e in extents) for extents in live)
    assert alloc.free_blocks + in_use == total
    for extents in live:
        alloc.free(extents)
    assert alloc.free_blocks == total
    assert len(alloc._free) == 1          # fully coalesced again
