"""Storage Engine tests: host file API, DPU path, caches, persistence."""

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.core import DpdpuRuntime
from repro.core.storage import StorageEngine
from repro.errors import StorageError
from repro.hardware import BLUEFIELD2, make_server
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def se(env):
    server = make_server(env, dpu_profile=BLUEFIELD2)
    return StorageEngine(server)


class TestHostFileApi:
    def test_write_then_read_roundtrip(self, env, se):
        file_id = se.create("t", size=1 * MiB)
        payload = RealBuffer(b"x" * PAGE_SIZE)
        write = se.write(file_id, 0, payload)
        env.run(until=write.done)
        read = se.read(file_id, 0, PAGE_SIZE)
        buffer = env.run(until=read.done)
        assert buffer.data == payload.data

    def test_read_has_storage_latency(self, env, se):
        file_id = se.create("t", size=1 * MiB)
        read = se.read(file_id, 0, PAGE_SIZE)
        env.run(until=read.done)
        # SSD access latency (~78 us) must dominate the round trip.
        assert read.latency > 50e-6

    def test_host_cpu_cost_is_frontend_only(self, env, se):
        file_id = se.create("t", size=16 * MiB)
        host_cpu = se.server.host_cpu
        base = host_cpu.cycles_charged.value
        n_ops = 100
        requests = [
            se.read(file_id, i * PAGE_SIZE, PAGE_SIZE)
            for i in range(n_ops)
        ]
        env.run(until=env.all_of([r.done for r in requests]))
        per_op = (host_cpu.cycles_charged.value - base) / n_ops
        # Frontend enqueue + completion reap: far below the ~18 K
        # cycles/page of the kernel storage stack.
        assert per_op < 1_000

    def test_reads_overlap_on_device(self, env, se):
        """The reactor submits asynchronously; I/O must overlap."""
        file_id = se.create("t", size=64 * MiB)
        n_ops = 64
        requests = [
            se.read(file_id, i * PAGE_SIZE, PAGE_SIZE)
            for i in range(n_ops)
        ]
        env.run(until=env.all_of([r.done for r in requests]))
        serial_floor = n_ops * se.server.ssd(0).spec.read_latency_s
        assert env.now < serial_floor / 2

    def test_concurrent_writers_complete(self, env, se):
        file_id = se.create("t", size=64 * MiB)
        requests = [
            se.write(file_id, i * PAGE_SIZE, SynthBuffer(PAGE_SIZE))
            for i in range(32)
        ]
        env.run(until=env.all_of([r.done for r in requests]))
        assert all(r.data == PAGE_SIZE for r in requests)


class TestDpuDirectPath:
    def test_dpu_read_bypasses_rings(self, env, se):
        file_id = se.create("t", size=1 * MiB)
        env.run(until=1e-6)          # flush the create's frontend charge
        base_busy = se.server.host_cpu.busy_seconds()

        def reader(env):
            buffer = yield from se.dpu_read(file_id, 0, PAGE_SIZE)
            return buffer

        proc = env.process(reader(env))
        buffer = env.run(until=proc)
        assert buffer.size == PAGE_SIZE
        assert se.server.host_cpu.busy_seconds() == base_busy
        assert se.dpu_ops.value == 1

    def test_dpu_write_visible_to_host_read(self, env, se):
        file_id = se.create("t", size=1 * MiB)
        payload = RealBuffer(b"dpu wrote this!!" * (PAGE_SIZE // 16))

        def writer(env):
            yield from se.dpu_write(file_id, 0, payload)

        env.run(until=env.process(writer(env)))
        read = se.read(file_id, 0, PAGE_SIZE)
        buffer = env.run(until=read.done)
        assert buffer.data == payload.data


class TestCaches:
    def test_dpu_cache_hit_skips_device(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        se = StorageEngine(server, dpu_cache_bytes=4 * MiB)
        file_id = se.create("t", size=1 * MiB)

        def reader(env):
            yield from se.dpu_read(file_id, 0, PAGE_SIZE)
            before = server.ssd(0).reads.value
            yield from se.dpu_read(file_id, 0, PAGE_SIZE)
            return server.ssd(0).reads.value - before

        extra_reads = env.run(until=env.process(reader(env)))
        assert extra_reads == 0
        assert se.dpu_cache.hits.value == 1

    def test_host_cache_completes_without_ring_trip(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        se = StorageEngine(server, host_cache_bytes=4 * MiB)
        file_id = se.create("t", size=1 * MiB)
        first = se.read(file_id, 0, PAGE_SIZE)
        env.run(until=first.done)
        second = se.read(file_id, 0, PAGE_SIZE)
        assert second.completed          # synchronous hit
        assert second.latency == 0.0

    def test_write_invalidates_caches(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        se = StorageEngine(server, dpu_cache_bytes=4 * MiB,
                           host_cache_bytes=4 * MiB)
        file_id = se.create("t", size=1 * MiB)
        env.run(until=se.read(file_id, 0, PAGE_SIZE).done)
        payload = RealBuffer(b"n" * PAGE_SIZE)
        env.run(until=se.write(file_id, 0, payload).done)
        read = se.read(file_id, 0, PAGE_SIZE)
        buffer = env.run(until=read.done)
        assert buffer.data == payload.data


class TestFastPersistence:
    def test_persist_ack_beats_regular_write(self, env, se):
        file_id = se.create("t", size=16 * MiB)
        regular = se.write(file_id, 0, SynthBuffer(PAGE_SIZE))
        env.run(until=regular.done)
        regular_latency = regular.latency
        persist = se.write_persistent(file_id, PAGE_SIZE,
                                      SynthBuffer(PAGE_SIZE))
        env.run(until=persist.done)
        # Journal append (sequential small write) acks faster than the
        # full in-place file write path.
        assert persist.latency < regular_latency

    def test_persisted_write_eventually_applies(self, env, se):
        file_id = se.create("t", size=16 * MiB)
        payload = RealBuffer(b"d" * PAGE_SIZE)
        persist = se.write_persistent(file_id, 0, payload)
        env.run(until=persist.done)
        env.run(until=env.now + 0.01)     # let the async apply land
        read = se.read(file_id, 0, PAGE_SIZE)
        buffer = env.run(until=read.done)
        assert buffer.data == payload.data

    def test_journal_truncated_after_apply(self, env, se):
        file_id = se.create("t", size=16 * MiB)
        persist = se.write_persistent(file_id, 0, SynthBuffer(PAGE_SIZE))
        env.run(until=persist.done)
        env.run(until=env.now + 0.01)
        assert se.journal.used_bytes == 0


class TestValidation:
    def test_requires_dpu(self, env):
        server = make_server(env, dpu_profile=None)
        with pytest.raises(StorageError):
            StorageEngine(server)

    def test_requires_ssd(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2, ssd_count=0)
        with pytest.raises(StorageError):
            StorageEngine(server)

    def test_runtime_facade_wires_engines(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        runtime = DpdpuRuntime(server)
        assert runtime.compute.runtime is runtime
        assert runtime.storage.fs is not None
        assert runtime.network.tcp is not None
