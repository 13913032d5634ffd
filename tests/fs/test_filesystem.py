"""Filesystem, block device, page cache, and journal tests."""

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.errors import (
    FileNotFoundOnDpuError,
    FileSystemError,
    StorageError,
)
from repro.fs import BlockDevice, FileSystem, Journal, PageCache
from repro.hardware import MemoryRegion, Ssd
from repro.sim import Environment
from repro.units import GiB, KiB, MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def fs(env):
    return FileSystem(BlockDevice(Ssd(env), capacity_bytes=1 * GiB))


def _run(env, gen):
    return env.run(until=env.process(gen))


class TestBlockDevice:
    def test_geometry(self, env):
        device = BlockDevice(Ssd(env), capacity_bytes=1 * MiB,
                             block_size=4096)
        assert device.num_blocks == 256

    def test_out_of_range_rejected(self, env):
        device = BlockDevice(Ssd(env), capacity_bytes=1 * MiB)

        def bad(env):
            yield from device.read_blocks(255, 2)

        env.process(bad(env))
        with pytest.raises(StorageError):
            env.run()

    def test_io_takes_device_time(self, env):
        device = BlockDevice(Ssd(env), capacity_bytes=1 * MiB)

        def read(env):
            yield from device.read_blocks(0, 2)
            return env.now

        assert _run(env, read(env)) > 0


class TestFileSystem:
    def test_create_and_stat(self, fs):
        file_id = fs.create("table.db", size=1 * MiB)
        inode = fs.mapping.inode(file_id)
        assert inode.size == 1 * MiB
        assert inode.allocated_blocks == 256
        assert inode.name == "table.db"

    def test_duplicate_name_rejected(self, fs):
        fs.create("x")
        with pytest.raises(FileSystemError):
            fs.create("x")

    def test_unknown_file_rejected(self, fs):
        with pytest.raises(FileNotFoundOnDpuError):
            fs.mapping.inode(999)

    def test_write_then_read_real_bytes(self, env, fs):
        file_id = fs.create("data", size=64 * KiB)
        payload = RealBuffer(b"p" * PAGE_SIZE)

        def work(env):
            yield from fs.write(file_id, 0, payload)
            result = yield from fs.read(file_id, 0, PAGE_SIZE)
            return result

        result = _run(env, work(env))
        assert isinstance(result, RealBuffer)
        assert result.data == payload.data

    def test_unwritten_range_reads_synthetic(self, env, fs):
        file_id = fs.create("sparse", size=64 * KiB)

        def work(env):
            result = yield from fs.read(file_id, 0, PAGE_SIZE)
            return result

        result = _run(env, work(env))
        assert isinstance(result, SynthBuffer)
        assert result.size == PAGE_SIZE

    def test_write_extends_file(self, env, fs):
        file_id = fs.create("growing")

        def work(env):
            yield from fs.write(file_id, 0, SynthBuffer(3 * PAGE_SIZE))

        _run(env, work(env))
        assert fs.mapping.inode(file_id).size == 3 * PAGE_SIZE

    def test_read_past_eof_rejected(self, env, fs):
        file_id = fs.create("short", size=PAGE_SIZE)

        def work(env):
            yield from fs.read(file_id, 0, 2 * PAGE_SIZE)

        env.process(work(env))
        with pytest.raises(FileSystemError):
            env.run()

    def test_mapping_translate_covers_range(self, fs):
        file_id = fs.create("mapped", size=1 * MiB)
        runs = fs.mapping.translate(file_id, 8192, 64 * KiB)
        assert sum(count for _, count in runs) == 16   # 64K / 4K blocks


class TestPageCache:
    def test_hit_after_put(self, env):
        memory = MemoryRegion(env, 16 * MiB)
        cache = PageCache(memory, capacity_bytes=1 * MiB)
        page = SynthBuffer(PAGE_SIZE)
        cache.put(("f", 0), page)
        assert cache.get(("f", 0)) is page
        assert cache.hit_rate() == 1.0

    def test_miss_recorded(self, env):
        cache = PageCache(MemoryRegion(env, 16 * MiB), 1 * MiB)
        assert cache.get("absent") is None
        assert cache.misses.value == 1

    def test_lru_eviction_order(self, env):
        cache = PageCache(MemoryRegion(env, 16 * MiB),
                          capacity_bytes=3 * PAGE_SIZE)
        for i in range(3):
            cache.put(i, SynthBuffer(PAGE_SIZE))
        cache.get(0)                       # promote 0
        cache.put(3, SynthBuffer(PAGE_SIZE))   # evicts 1 (LRU)
        assert cache.get(0) is not None
        assert cache.get(1) is None
        assert cache.evictions.value == 1

    def test_cache_charges_memory_region(self, env):
        memory = MemoryRegion(env, 16 * MiB)
        cache = PageCache(memory, capacity_bytes=4 * MiB)
        cache.put("k", SynthBuffer(PAGE_SIZE))
        assert memory.used_bytes == PAGE_SIZE
        cache.invalidate("k")
        assert memory.used_bytes == 0

    def test_memory_pressure_skips_caching(self, env):
        memory = MemoryRegion(env, 2 * PAGE_SIZE)
        hog = memory.try_allocate(2 * PAGE_SIZE)
        cache = PageCache(memory, capacity_bytes=1 * MiB)
        cache.put("k", SynthBuffer(PAGE_SIZE))
        assert cache.get("k") is None
        hog.free()

    def test_oversized_page_not_cached(self, env):
        cache = PageCache(MemoryRegion(env, 16 * MiB),
                          capacity_bytes=PAGE_SIZE)
        cache.put("big", SynthBuffer(4 * PAGE_SIZE))
        assert len(cache) == 0


class TestJournal:
    def test_append_is_durable_and_timed(self, env):
        journal = Journal(Ssd(env), capacity_bytes=1 * MiB)

        def work(env):
            record = yield from journal.append("put", {"k": 1}, 256)
            return (record.lsn, env.now)

        lsn, now = _run(env, work(env))
        assert lsn == 1
        assert now > 0                      # paid the device write
        assert journal.used_bytes == 256

    def test_lsns_monotonic(self, env):
        journal = Journal(Ssd(env), capacity_bytes=1 * MiB)

        def work(env):
            lsns = []
            for i in range(5):
                record = yield from journal.append("op", i, 128)
                lsns.append(record.lsn)
            return lsns

        assert _run(env, work(env)) == [1, 2, 3, 4, 5]

    def test_full_journal_raises(self, env):
        journal = Journal(Ssd(env), capacity_bytes=512)

        def work(env):
            yield from journal.append("op", None, 400)
            yield from journal.append("op", None, 200)

        env.process(work(env))
        with pytest.raises(StorageError):
            env.run()

    def test_truncate_frees_space(self, env):
        journal = Journal(Ssd(env), capacity_bytes=1 * MiB)

        def work(env):
            for i in range(4):
                yield from journal.append("op", i, 100)

        _run(env, work(env))
        freed = journal.truncate_through(2)
        assert freed == 200
        assert journal.used_bytes == 200
        assert [r.payload for r in journal.replay()] == [2, 3]

    def test_replay_applies_in_order(self, env):
        journal = Journal(Ssd(env), capacity_bytes=1 * MiB)

        def work(env):
            for i in (3, 1, 2):
                yield from journal.append("op", i, 64)

        _run(env, work(env))
        seen = []
        journal.replay(lambda record: seen.append(record.payload))
        assert seen == [3, 1, 2]            # LSN order == append order
