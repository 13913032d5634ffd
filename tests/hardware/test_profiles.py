"""Tests for DPU profiles, DPU assembly, and server construction."""

import pytest

from repro.hardware import (
    BLUEFIELD2,
    BLUEFIELD3,
    DPU_PROFILES,
    Dpu,
    EPYC_HOST,
    GENERIC_DPU,
    INTEL_IPU,
    connect,
    make_server,
)
from repro.sim import Environment
from repro.units import GiB


@pytest.fixture
def env():
    return Environment()


class TestProfiles:
    def test_bluefield2_matches_paper_figure4(self):
        # Section 3: 8 Arm A72 @ 2.5 GHz, 16 GB, 100 Gbps, four ASICs.
        assert BLUEFIELD2.arm_cores == 8
        assert BLUEFIELD2.arm_frequency_hz == pytest.approx(2.5e9)
        assert BLUEFIELD2.memory_bytes == 16 * GiB
        assert BLUEFIELD2.nic_bandwidth_bps == pytest.approx(100e9)
        for kind in ("compression", "encryption", "regex", "dedup"):
            assert BLUEFIELD2.has_accelerator(kind)

    def test_bluefield3_lacks_regex(self):
        # The paper's Challenge #3 example: BF-3 drops the RegEx engine.
        assert not BLUEFIELD3.has_accelerator("regex")
        assert BLUEFIELD3.has_accelerator("compression")
        assert BLUEFIELD3.generic_code_offload

    def test_intel_ipu_lacks_regex_and_dedup(self):
        assert not INTEL_IPU.has_accelerator("regex")
        assert not INTEL_IPU.has_accelerator("dedup")

    def test_generic_dpu_has_no_asics(self):
        assert GENERIC_DPU.accelerators == ()

    def test_registry_contains_all_profiles(self):
        assert set(DPU_PROFILES) == {
            "bluefield2", "bluefield3", "intel-ipu", "generic-dpu"
        }

    def test_accelerator_spec_lookup(self):
        spec = BLUEFIELD2.accelerator_spec("compression")
        assert spec is not None
        assert spec.throughput_bytes_per_s == pytest.approx(1.6e9)
        assert BLUEFIELD2.accelerator_spec("missing-kind") is None


class TestDpuAssembly:
    def test_dpu_builds_declared_accelerators(self, env):
        dpu = Dpu(env, BLUEFIELD2)
        assert set(dpu.accelerators) == {
            "compression", "encryption", "regex", "dedup"
        }
        assert dpu.accelerator("regex") is not None
        assert dpu.has_accelerator("compression")

    def test_missing_accelerator_is_none(self, env):
        dpu = Dpu(env, BLUEFIELD3)
        assert dpu.accelerator("regex") is None
        assert not dpu.has_accelerator("regex")

    def test_cpu_cluster_is_dpu_class(self, env):
        dpu = Dpu(env, BLUEFIELD2)
        assert dpu.cpu.cpu_class == "dpu"
        assert dpu.cpu.cores == 8

    def test_memory_capacity_from_profile(self, env):
        dpu = Dpu(env, BLUEFIELD2)
        assert dpu.memory.capacity_bytes == 16 * GiB


class TestServer:
    def test_server_with_dpu_uses_dpu_nic(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        assert server.dpu is not None
        assert server.nic is server.dpu.nic

    def test_server_without_dpu_gets_plain_nic(self, env):
        server = make_server(env, dpu_profile=None)
        assert server.dpu is None
        assert server.nic is not None

    def test_host_profile_applied(self, env):
        server = make_server(env, host_profile=EPYC_HOST)
        assert server.host_cpu.cores == 64
        assert server.host_cpu.cpu_class == "host"

    def test_ssd_complement(self, env):
        server = make_server(env, ssd_count=3)
        assert len(server.ssds) == 3
        assert server.ssd(1).name == "server.ssd1"

    def test_connect_requires_same_env(self, env):
        a = make_server(env, name="a")
        b = make_server(Environment(), name="b")
        with pytest.raises(ValueError):
            connect(a, b)

    def test_connected_servers_exchange_frames(self, env):
        a = make_server(env, name="a", dpu_profile=BLUEFIELD2)
        b = make_server(env, name="b", dpu_profile=BLUEFIELD2)
        connect(a, b)

        def sender(env):
            yield from a.nic.transmit({"hello": True}, 64)

        def receiver(env):
            frame = yield b.nic.rx_host.get()
            return frame

        env.process(sender(env))
        proc = env.process(receiver(env))
        assert env.run(until=proc) == {"hello": True}
