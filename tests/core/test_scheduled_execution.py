"""Scheduled execution under contention (Section 5).

"Scheduled execution enables the CE to optimize the overall
performance of a sproc given hardware constraints" — when the ASIC
queue grows, the engine must start spilling kernels to CPUs instead
of queueing everything behind it.
"""

import pytest

from repro.buffers import SynthBuffer
from repro.core import ComputeEngine
from repro.hardware import BLUEFIELD2, make_server
from repro.sim import Environment
from repro.units import MiB


@pytest.fixture
def env():
    return Environment()


@pytest.mark.xfail(
    strict=True,
    reason="ComputeEngine._inflight is never decremented: the backlog "
           "factor counts every submission the engine ever made, so "
           "from the 22nd finished job on an idle engine the host "
           "wins.  The fix (decrement when a kernel completes or "
           "fails) moves fig6.sproc.bf2/scheduled.asic_fraction and "
           "the full kernels_real_bytes digest, so it lands with the "
           "re-pin (ROADMAP 1(b), docs/ROBUSTNESS.md)")
def test_a_finished_kernel_leaves_no_backlog(env):
    """Jobs run one after another on an idle engine all get the idle
    engine's choice."""
    ce = ComputeEngine(make_server(env, dpu_profile=BLUEFIELD2))
    devices = []
    for _ in range(40):
        request = ce.submit_kernel("compress", SynthBuffer(1 * MiB))
        env.run(until=request.done)
        devices.append(request.device)
    assert devices == ["dpu_asic"] * 40


class TestScheduledUnderContention:
    def test_scheduler_diversifies_under_asic_backlog(self, env):
        """A burst of medium compression jobs: specified execution
        serializes on the ASIC; scheduled execution spreads across
        devices once the ASIC queue builds."""
        ce = ComputeEngine(make_server(env, dpu_profile=BLUEFIELD2))
        dpk = ce.get_dpk("compress")
        requests = [dpk(SynthBuffer(2 * MiB)) for _ in range(24)]
        env.run(until=env.all_of([r.done for r in requests]))
        devices = {request.device for request in requests}
        # Not everything piled onto the ASIC.
        assert "dpu_asic" in devices
        assert len(devices) >= 2

    def test_scheduled_beats_asic_only_under_burst(self, env):
        def run(mode):
            inner = Environment()
            ce = ComputeEngine(make_server(inner,
                                           dpu_profile=BLUEFIELD2))
            dpk = ce.get_dpk("compress")
            if mode == "specified":
                requests = [dpk(SynthBuffer(2 * MiB), "dpu_asic")
                            for _ in range(24)]
            else:
                requests = [dpk(SynthBuffer(2 * MiB))
                            for _ in range(24)]
            inner.run(until=inner.all_of([r.done for r in requests]))
            return inner.now

        asic_only = run("specified")
        scheduled = run("scheduled")
        assert scheduled < asic_only

    def test_idle_asic_still_preferred(self, env):
        """With no contention, scheduled execution picks the ASIC for
        a large job — no pointless CPU spill."""
        ce = ComputeEngine(make_server(env, dpu_profile=BLUEFIELD2))
        request = ce.get_dpk("compress")(SynthBuffer(16 * MiB))
        env.run(until=request.done)
        assert request.device == "dpu_asic"

    def test_tiny_jobs_avoid_asic_setup_cost(self, env):
        """Setup latency dominates small jobs; scheduled execution
        keeps them on CPUs."""
        ce = ComputeEngine(make_server(env, dpu_profile=BLUEFIELD2))
        request = ce.get_dpk("compress")(SynthBuffer(512))
        env.run(until=request.done)
        assert request.device != "dpu_asic"
