"""Extent allocator tests, including a hypothesis invariant check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.fs import Extent, ExtentAllocator


class TestExtent:
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

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtentAllocator(0)
        alloc = ExtentAllocator(10)
        with pytest.raises(ValueError):
            alloc.allocate(0)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.integers(min_value=1, max_value=40),
                    min_size=1, max_size=30))
def test_property_allocations_are_disjoint_and_conserve_blocks(ops):
    """Whatever is asked for, no block is handed out twice or lost."""
    total = 512
    alloc = ExtentAllocator(total)
    taken = set()
    for size in ops:
        if size > alloc.free_blocks:
            with pytest.raises(StorageError):
                alloc.allocate(size)
            continue
        for extent in alloc.allocate(size):
            blocks = set(range(extent.start,
                               extent.start + extent.length))
            assert not blocks & taken
            taken |= blocks
    assert alloc.free_blocks + len(taken) == total
