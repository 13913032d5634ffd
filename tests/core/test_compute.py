"""Compute Engine tests: kernels across placements, sprocs, portability."""

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.core import ComputeEngine
from repro.errors import KernelUnavailableError, SprocError
from repro.hardware import (
    BLUEFIELD2,
    BLUEFIELD3,
    GENERIC_DPU,
    INTEL_IPU,
    make_server,
)
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def ce(env):
    return ComputeEngine(make_server(env, dpu_profile=BLUEFIELD2))


class TestKernelPlacement:
    def test_specified_asic_execution(self, env, ce):
        dpk = ce.get_dpk("compress")
        request = dpk(SynthBuffer(1 * MiB), "dpu_asic")
        assert request is not None
        env.run(until=request.done)
        assert request.device == "dpu_asic"
        assert request.data.size < 1 * MiB
        assert ce.dpu.accelerator("compression").jobs.value == 1

    def test_specified_missing_asic_returns_none(self, env):
        ce = ComputeEngine(make_server(env, dpu_profile=BLUEFIELD3))
        dpk = ce.get_dpk("regex")
        assert dpk(SynthBuffer(1000), "dpu_asic") is None

    def test_figure6_fallback_idiom(self, env):
        """The exact pattern from Figure 6 lines 19-24."""
        ce = ComputeEngine(make_server(env, dpu_profile=GENERIC_DPU))
        dpk_compress = ce.get_dpk("compress")
        comp_req = dpk_compress(SynthBuffer(PAGE_SIZE), "dpu_asic")
        if comp_req is None:
            comp_req = dpk_compress(SynthBuffer(PAGE_SIZE), "dpu_cpu")
        assert comp_req is not None
        env.run(until=comp_req.done)
        assert comp_req.device == "dpu_cpu"

    def test_dpu_cpu_execution_charges_arm_cycles(self, env, ce):
        dpk = ce.get_dpk("compress")
        request = dpk(SynthBuffer(100_000), "dpu_cpu")
        env.run(until=request.done)
        # 2000 base + 55 cycles/byte on the Arm cores
        assert ce.dpu.cpu.cycles_charged.value == pytest.approx(
            2000 + 55.0 * 100_000
        )

    def test_host_cpu_execution_pays_pcie(self, env, ce):
        dpk = ce.get_dpk("compress")
        request = dpk(SynthBuffer(1 * MiB), "host_cpu")
        env.run(until=request.done)
        assert ce.server.host_cpu.cycles_charged.value > 0
        assert ce.dpu.pcie.bytes_moved.value > 1 * MiB   # there and back

    def test_asic_is_order_of_magnitude_faster_for_big_jobs(self, env, ce):
        """The Figure 1 headline, at kernel level."""
        dpk = ce.get_dpk("compress")
        size = 64 * MiB

        asic_req = dpk(SynthBuffer(size), "dpu_asic")
        env.run(until=asic_req.done)
        asic_time = asic_req.latency

        cpu_req = dpk(SynthBuffer(size), "dpu_cpu")
        start = env.now
        env.run(until=cpu_req.done)
        cpu_time = env.now - start
        assert cpu_time / asic_time > 10

    def test_scheduled_execution_always_returns_request(self, env):
        ce = ComputeEngine(make_server(env, dpu_profile=GENERIC_DPU))
        request = ce.get_dpk("regex")(SynthBuffer(1000))
        assert request is not None
        env.run(until=request.done)
        assert request.device in ("dpu_cpu", "host_cpu")

    def test_scheduled_prefers_asic_for_large_compress(self, env, ce):
        request = ce.get_dpk("compress")(SynthBuffer(16 * MiB))
        env.run(until=request.done)
        assert request.device == "dpu_asic"

    def test_unknown_kernel_rejected(self, ce):
        with pytest.raises(KernelUnavailableError):
            ce.get_dpk("teleport")

    def test_unknown_placement_rejected(self, env, ce):
        dpk = ce.get_dpk("compress")
        with pytest.raises(KernelUnavailableError):
            dpk(SynthBuffer(10), "gpu")

    def test_real_bytes_identical_across_placements(self, env, ce):
        """The portability contract: placement never changes results."""
        payload = RealBuffer(b"identical results everywhere " * 100)
        outputs = []
        for device in ("dpu_asic", "dpu_cpu", "host_cpu"):
            request = ce.get_dpk("compress")(payload, device)
            env.run(until=request.done)
            outputs.append(request.data.data)
        assert outputs[0] == outputs[1] == outputs[2]


class TestPortability:
    """Ablation A2's core claim: same code, any DPU profile."""

    PROFILES = [BLUEFIELD2, BLUEFIELD3, INTEL_IPU, GENERIC_DPU]

    @pytest.mark.parametrize("profile", PROFILES,
                             ids=[p.name for p in PROFILES])
    def test_compress_sproc_runs_on_every_profile(self, env, profile):
        ce = ComputeEngine(make_server(env, dpu_profile=profile))

        def compress_sproc(ctx, payload):
            dpk = ctx.dpk("compress")
            request = dpk(payload, "dpu_asic")
            if request is None:
                request = dpk(payload, "dpu_cpu")
            result = yield from ctx.wait(request)
            return (request.device, result.size)

        ce.register_sproc("c", compress_sproc)
        request = ce.invoke("c", SynthBuffer(1 * MiB))
        env.run(until=request.done)
        device, size = request.data
        expected_device = (
            "dpu_asic" if profile.has_accelerator("compression")
            else "dpu_cpu"
        )
        assert device == expected_device
        assert size < 1 * MiB


class TestSprocs:
    def test_register_requires_generator(self, ce):
        with pytest.raises(SprocError):
            ce.register_sproc("bad", lambda ctx, arg: 42)

    def test_duplicate_registration_rejected(self, ce):
        def sproc(ctx, arg):
            yield ctx.env.timeout(0)

        ce.register_sproc("s", sproc)
        with pytest.raises(SprocError):
            ce.register_sproc("s", sproc)

    def test_unregister_drops_the_name_and_frees_it(self, ce):
        def sproc(ctx, arg):
            yield ctx.env.timeout(0)

        ce.register_sproc("s", sproc)
        ce.unregister_sproc("s")
        assert "s" not in ce.sproc_names()
        with pytest.raises(SprocError):
            ce.invoke("s")
        ce.register_sproc("s", sproc)
        with pytest.raises(KeyError):
            ce.unregister_sproc("ghost")

    def test_invoke_unknown_sproc(self, ce):
        with pytest.raises(SprocError):
            ce.invoke("ghost")

    def test_sproc_return_value(self, env, ce):
        def sproc(ctx, arg):
            yield from ctx.compute(10_000)
            return arg + 1

        ce.register_sproc("inc", sproc)
        request = ce.invoke("inc", 41)
        assert env.run(until=request.done) == 42

    def test_sproc_failure_propagates(self, env, ce):
        def sproc(ctx, arg):
            yield from ctx.compute(1000)
            raise RuntimeError("sproc blew up")

        ce.register_sproc("boom", sproc)
        request = ce.invoke("boom")
        with pytest.raises(RuntimeError, match="sproc blew up"):
            env.run(until=request.done)

    def test_dispatch_charges_dpu_core(self, env, ce):
        def sproc(ctx, arg):
            yield ctx.env.timeout(0)

        ce.register_sproc("noop", sproc)
        request = ce.invoke("noop")
        env.run(until=request.done)
        assert ce.dpu.cpu.cycles_charged.value >= (
            ce.costs.software.sproc_dispatch_cycles
        )

    def test_cost_estimate_adapts(self, env, ce):
        def sproc(ctx, arg):
            yield from ctx.compute(500_000)

        ce.register_sproc("heavy", sproc, estimated_cycles=1_000.0)
        before = ce._sprocs["heavy"].estimated_cycles
        request = ce.invoke("heavy")
        env.run(until=request.done)
        assert ce._sprocs["heavy"].estimated_cycles > before

    def test_concurrent_invocations_use_multiple_cores(self, env, ce):
        def sproc(ctx, arg):
            yield from ctx.compute(2_500_000)    # 1 ms on a 2.5 GHz core

        ce.register_sproc("par", sproc)
        requests = [ce.invoke("par") for _ in range(8)]
        env.run(until=env.all_of([r.done for r in requests]))
        # 8 tasks x 1 ms on 8 cores -> ~1 ms, far below serial 8 ms.
        assert env.now < 4e-3

    def test_sproc_can_call_kernels_and_wait_all(self, env, ce):
        def sproc(ctx, pages):
            dpk = ctx.dpk("compress")
            requests = [dpk(page, "dpu_asic") for page in pages]
            total = 0
            for request in requests:
                total += (yield from ctx.wait(request)).size
            return total

        ce.register_sproc("batch", sproc)
        pages = [SynthBuffer(PAGE_SIZE) for _ in range(10)]
        request = ce.invoke("batch", pages)
        total = env.run(until=request.done)
        assert total == 10 * (PAGE_SIZE // 3)
