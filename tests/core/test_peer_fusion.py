"""PCIe peer accelerators (GPU/FPGA) and DP-kernel fusion tests."""

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.core import ComputeEngine
from repro.core.compute import FUSABLE_PLACEMENTS
from repro.errors import KernelUnavailableError
from repro.hardware import (
    BLUEFIELD2,
    FPGA_SPEC,
    GPU_SPEC,
    PeerAccelerator,
    PeerAcceleratorSpec,
    make_server,
)
from repro.sim import Environment
from repro.units import GB, MiB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def ce(env):
    server = make_server(env, dpu_profile=BLUEFIELD2,
                         peer_specs=(GPU_SPEC, FPGA_SPEC))
    return ComputeEngine(server)


class TestPeerDevice:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PeerAcceleratorSpec("tpu", "x", (("compress", 1 * GB),))
        with pytest.raises(ValueError):
            PeerAcceleratorSpec("gpu", "x", (("compress", 0),))

    def test_service_time_includes_launch(self, env):
        peer = PeerAccelerator(env, GPU_SPEC)
        expected = GPU_SPEC.launch_latency_s + (1 * GB) / (12 * GB)
        assert peer.chain_service_time([("compress", 1 * GB)]) == \
            pytest.approx(expected)

    def test_chain_single_launch(self, env):
        peer = PeerAccelerator(env, GPU_SPEC)
        chained = peer.chain_service_time(
            [("decompress", 1 * GB), ("filter", 3 * GB)]
        )
        separate = (peer.chain_service_time([("decompress", 1 * GB)])
                    + peer.chain_service_time([("filter", 3 * GB)]))
        assert chained == pytest.approx(
            separate - GPU_SPEC.launch_latency_s
        )

    def test_unsupported_kernel_raises(self, env):
        peer = PeerAccelerator(env, FPGA_SPEC)
        with pytest.raises(KeyError):
            peer.chain_service_time([("aggregate", 100)])

    def test_channels_limit_concurrency(self, env):
        spec = PeerAcceleratorSpec(
            "gpu", "g", (("compress", 1 * GB),),
            launch_latency_s=0.0, channels=2,
        )
        peer = PeerAccelerator(env, spec)

        def job():
            yield from peer.run_job("compress", 1 * GB)

        for _ in range(4):
            env.process(job())
        env.run()
        assert env.now == pytest.approx(2.0)     # 4 jobs / 2 channels
        assert peer.jobs.value == 4


class TestPeerPlacement:
    def test_no_peer_returns_none(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        engine = ComputeEngine(server)
        assert engine.get_dpk("compress")(
            SynthBuffer(100), "pcie_gpu"
        ) is None

    def test_unsupported_kernel_on_peer_returns_none(self, ce):
        assert ce.get_dpk("aggregate")(
            SynthBuffer(100), "pcie_fpga"
        ) is None

    def test_gpu_execution_moves_data_over_pcie(self, env, ce):
        request = ce.get_dpk("compress")(SynthBuffer(16 * MiB),
                                         "pcie_gpu")
        env.run(until=request.done)
        assert request.device == "pcie_gpu"
        gpu = ce.server.peer("gpu")
        assert gpu.jobs.value == 1
        assert ce.dpu.pcie.bytes_moved.value > 16 * MiB

    def test_results_identical_to_cpu(self, env, ce):
        payload = RealBuffer(b"identical across devices " * 200)
        gpu_req = ce.get_dpk("compress")(payload, "pcie_gpu")
        cpu_req = ce.get_dpk("compress")(payload, "dpu_cpu")
        env.run(until=env.all_of([gpu_req.done, cpu_req.done]))
        assert gpu_req.data.data == cpu_req.data.data

    def test_scheduled_prefers_gpu_for_huge_jobs(self, env, ce):
        request = ce.get_dpk("aggregate")(SynthBuffer(256 * MiB))
        env.run(until=request.done)
        assert request.device == "pcie_gpu"


class TestFusion:
    def test_fused_chain_result_matches_unfused(self, env, ce):
        records = b"\n".join(
            b"%d,%d" % (i, i * 3) for i in range(500)
        ) + b"\n"
        compressed = ce.get_dpk("compress")(RealBuffer(records),
                                            "dpu_cpu")
        env.run(until=compressed.done)

        fused = ce.submit_fused(["decompress", "filter"],
                                compressed.data, "pcie_gpu")
        env.run(until=fused.done)

        step1 = ce.get_dpk("decompress")(compressed.data, "dpu_cpu")
        env.run(until=step1.done)
        step2 = ce.get_dpk("filter")(step1.data, "dpu_cpu")
        env.run(until=step2.done)
        assert fused.data.data == step2.data.data == records

    def test_fusion_is_faster_than_separate_on_gpu(self, env, ce):
        payload = SynthBuffer(8 * MiB, label="c.z")
        fused = ce.submit_fused(["decompress", "filter"], payload,
                                "pcie_gpu")
        env.run(until=fused.done)
        fused_latency = fused.latency

        step1 = ce.get_dpk("decompress")(payload, "pcie_gpu")
        env.run(until=step1.done)
        step2 = ce.get_dpk("filter")(step1.data, "pcie_gpu")
        env.run(until=step2.done)
        separate_latency = step1.latency + step2.latency
        # Fusion saves one launch and the intermediate's two PCIe
        # crossings: a clear win.
        assert fused_latency < 0.6 * separate_latency

    def test_fusion_on_a_cpu_is_refused(self, ce):
        # Fusion saves a peer's launch and PCIe crossings; a CPU has
        # neither to save.
        for device in ("dpu_cpu", "host_cpu"):
            with pytest.raises(KernelUnavailableError):
                ce.submit_fused(["encrypt", "crc32"], SynthBuffer(10),
                                device)
        assert FUSABLE_PLACEMENTS == ("pcie_gpu", "pcie_fpga")

    def test_fusion_validation(self, ce):
        with pytest.raises(KernelUnavailableError):
            ce.submit_fused(["compress"], SynthBuffer(10), "pcie_gpu")
        with pytest.raises(KernelUnavailableError):
            ce.submit_fused(["compress", "crc32"], SynthBuffer(10),
                            "dpu_asic")
        assert "dpu_asic" not in FUSABLE_PLACEMENTS

    def test_fused_meta_merges_stages(self, env, ce):
        payload = RealBuffer(b"abc 123 def 456 " * 50)
        fused = ce.submit_fused(["compress", "crc32"], payload,
                                "pcie_gpu")
        env.run(until=fused.done)
        assert "ratio" in fused.meta          # from compress
        assert "crc32" in fused.meta          # from crc32

    def test_fused_unsupported_peer_returns_none(self, ce):
        # FPGA has no aggregate; the whole chain must be refused.
        assert ce.submit_fused(["filter", "aggregate"],
                               SynthBuffer(100), "pcie_fpga") is None
