"""Tests for accelerator, memory, PCIe/DMA, NIC, and SSD models."""

import pytest

from repro.errors import CapacityError
from repro.hardware import (
    Accelerator,
    AcceleratorSpec,
    DmaEngine,
    MemoryRegion,
    Nic,
    PcieLink,
    Ssd,
    SsdSpec,
    Wire,
)
from repro.sim import Environment
from repro.units import GB, Gbps, KiB, MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


class TestAccelerator:
    def test_service_time_is_setup_plus_streaming(self, env):
        spec = AcceleratorSpec("compression", throughput_bytes_per_s=1 * GB,
                               setup_latency_s=10e-6)
        asic = Accelerator(env, spec)
        assert asic.service_time(1 * GB) == pytest.approx(1.0 + 10e-6)

    def test_small_jobs_dominated_by_setup(self, env):
        spec = AcceleratorSpec("compression", throughput_bytes_per_s=1 * GB,
                               setup_latency_s=30e-6)
        asic = Accelerator(env, spec)
        # A 4 KiB job streams in ~4 us but pays 30 us setup.
        assert asic.service_time(4 * KiB) > 30e-6
        assert asic.service_time(4 * KiB) < 40e-6

    def test_jobs_queue_for_channels(self, env):
        spec = AcceleratorSpec("compression", throughput_bytes_per_s=1 * GB,
                               setup_latency_s=0.0, channels=1)
        asic = Accelerator(env, spec)

        def job(env):
            yield from asic.run_job(1 * GB)   # 1 s each

        env.process(job(env))
        env.process(job(env))
        env.run()
        assert env.now == pytest.approx(2.0)
        assert asic.jobs.value == 2

    def test_channels_run_concurrently(self, env):
        spec = AcceleratorSpec("compression", throughput_bytes_per_s=1 * GB,
                               setup_latency_s=0.0, channels=2)
        asic = Accelerator(env, spec)

        def job(env):
            yield from asic.run_job(1 * GB)

        env.process(job(env))
        env.process(job(env))
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorSpec("quantum", throughput_bytes_per_s=1 * GB)


class TestMemoryRegion:
    def test_try_allocate_and_free(self, env):
        mem = MemoryRegion(env, 1 * MiB)
        alloc = mem.try_allocate(256 * KiB, tag="cache")
        assert alloc is not None
        assert mem.used_bytes == 256 * KiB
        alloc.free()
        assert mem.used_bytes == 0

    def test_try_allocate_fails_when_full(self, env):
        mem = MemoryRegion(env, 1 * MiB)
        assert mem.try_allocate(1 * MiB) is not None
        assert mem.try_allocate(1) is None
        assert mem.used_bytes == 1 * MiB

    def test_blocking_allocate_waits_for_free(self, env):
        mem = MemoryRegion(env, 1 * MiB)
        first = mem.try_allocate(1 * MiB)

        def waiter(env):
            alloc = yield from mem.allocate(512 * KiB)
            alloc.free()
            return env.now

        def releaser(env):
            yield env.timeout(3.0)
            first.free()

        proc = env.process(waiter(env))
        env.process(releaser(env))
        assert env.run(until=proc) == 3.0

    def test_oversized_blocking_alloc_raises(self, env):
        mem = MemoryRegion(env, 1 * MiB)

        def waiter(env):
            yield from mem.allocate(2 * MiB)

        env.process(waiter(env))
        with pytest.raises(CapacityError):
            env.run()

    def test_context_manager_frees(self, env):
        mem = MemoryRegion(env, 1 * MiB)
        with mem.try_allocate(128 * KiB):
            assert mem.used_bytes == 128 * KiB
        assert mem.used_bytes == 0


class TestPcieAndDma:
    def test_transfer_time_includes_latency(self, env):
        link = PcieLink(env, bandwidth_bps=8 * GB * 8, latency_s=1e-6)

        def move(env):
            yield from link.transfer(8 * GB, direction="to_host")
            return env.now

        proc = env.process(move(env))
        assert env.run(until=proc) == pytest.approx(1.0 + 1e-6)

    def test_directions_are_independent(self, env):
        link = PcieLink(env, bandwidth_bps=1 * GB * 8, latency_s=0.0)

        def up(env):
            yield from link.transfer(1 * GB, direction="to_host")

        def down(env):
            yield from link.transfer(1 * GB, direction="to_device")

        env.process(up(env))
        env.process(down(env))
        env.run()
        assert env.now == pytest.approx(1.0)   # full duplex

    def test_same_direction_serializes(self, env):
        link = PcieLink(env, bandwidth_bps=1 * GB * 8, latency_s=0.0)

        def up(env):
            yield from link.transfer(1 * GB, direction="to_host")

        env.process(up(env))
        env.process(up(env))
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_dma_channels_limit_concurrency(self, env):
        link = PcieLink(env, bandwidth_bps=1 * GB * 8, latency_s=0.0)
        dma = DmaEngine(env, link, channels=2, setup_latency_s=0.0)

        def copy(env):
            yield from dma.copy(1 * GB, direction="to_device")

        for _ in range(2):
            env.process(copy(env))
        env.run()
        # Two copies share the to_device pipe: serialization dominates.
        assert env.now == pytest.approx(2.0)
        assert link.bytes_moved.value == 2 * GB

    def test_unknown_direction_rejected(self, env):
        link = PcieLink(env, bandwidth_bps=1 * GB * 8)

        def move(env):
            yield from link.transfer(10, direction="sideways")

        env.process(move(env))
        with pytest.raises(ValueError):
            env.run()


class TestNicAndWire:
    def test_frame_travels_between_nics(self, env):
        nic_a = Nic(env, 100 * Gbps, name="a")
        nic_b = Nic(env, 100 * Gbps, name="b")
        Wire(env, nic_a, nic_b, propagation_delay_s=1e-6)

        def sender(env):
            yield from nic_a.transmit({"seq": 1}, PAGE_SIZE)

        def receiver(env):
            frame = yield nic_b.rx_host.get()
            return (env.now, frame["seq"])

        env.process(sender(env))
        proc = env.process(receiver(env))
        now, seq = env.run(until=proc)
        assert seq == 1
        # port latency + serialization + propagation
        expected = 1e-6 + PAGE_SIZE * 8 / (100 * Gbps) + 1e-6
        assert now == pytest.approx(expected)

    def test_flow_table_steers_to_dpu(self, env):
        nic_a = Nic(env, 100 * Gbps, name="a")
        nic_b = Nic(env, 100 * Gbps, name="b")
        Wire(env, nic_a, nic_b)
        nic_b.flow_table.add_rule(
            lambda f: f.get("kind") == "storage", "dpu"
        )

        def sender(env):
            yield from nic_a.transmit({"kind": "storage"}, 100)
            yield from nic_a.transmit({"kind": "query"}, 100)

        env.process(sender(env))
        env.run()
        assert len(nic_b.rx_dpu) == 1
        assert len(nic_b.rx_host) == 1

    def test_tx_serialization_caps_throughput(self, env):
        nic_a = Nic(env, 10 * Gbps, name="a", port_latency_s=0.0)
        nic_b = Nic(env, 10 * Gbps, name="b")
        Wire(env, nic_a, nic_b, propagation_delay_s=0.0)

        def sender(env):
            for _ in range(100):
                yield from nic_a.transmit({}, 125_000)  # 0.1 ms each

        env.process(sender(env))
        env.run()
        assert env.now == pytest.approx(100 * 125_000 * 8 / (10 * Gbps))

    def test_unconnected_nic_raises(self, env):
        nic = Nic(env, 10 * Gbps)

        def sender(env):
            yield from nic.transmit({}, 10)

        env.process(sender(env))
        with pytest.raises(RuntimeError):
            env.run()


class TestSsd:
    def test_single_read_latency(self, env):
        ssd = Ssd(env, SsdSpec(read_latency_s=80e-6,
                               read_bandwidth_bps=4 * GB * 8))

        def read(env):
            yield from ssd.read(PAGE_SIZE)
            return env.now

        proc = env.process(read(env))
        expected = 80e-6 + PAGE_SIZE / (4 * GB)
        assert env.run(until=proc) == pytest.approx(expected)

    def test_throughput_capped_by_transfer_stage(self, env):
        spec = SsdSpec(read_latency_s=80e-6, read_bandwidth_bps=3.7 * GB * 8,
                       queue_depth=128)
        ssd = Ssd(env, spec)
        n_pages = 2000

        def reader(env):
            yield from ssd.read(PAGE_SIZE)

        for _ in range(n_pages):
            env.process(reader(env))
        env.run()
        achieved = n_pages / env.now
        ceiling = (spec.read_bandwidth_bps / 8.0) / PAGE_SIZE
        # The transfer stage is the bottleneck: close to but below cap.
        assert achieved <= ceiling * 1.001
        assert achieved > ceiling * 0.95
        # Calibration check: the cap sits in Figure 2's 430-470 K range.
        assert 430_000 < ceiling < 470_000

    def test_queue_depth_limits_inflight(self, env):
        ssd = Ssd(env, SsdSpec(queue_depth=2))
        peak = []

        def reader(env):
            proc = ssd.read(PAGE_SIZE)
            step = next(proc)
            while True:
                peak.append(ssd._queue.count)
                try:
                    value = yield step
                    step = proc.send(value)
                except StopIteration:
                    break

        for _ in range(8):
            env.process(reader(env))
        env.run()
        assert max(peak) <= 2

    def test_writes_tracked_separately(self, env):
        ssd = Ssd(env)

        def writer(env):
            yield from ssd.write(PAGE_SIZE)
            yield from ssd.read(PAGE_SIZE)

        env.process(writer(env))
        env.run()
        assert ssd.writes.value == 1
        assert ssd.reads.value == 1
        assert ssd.bytes_written.value == PAGE_SIZE
        assert ssd.bytes_read.value == PAGE_SIZE
