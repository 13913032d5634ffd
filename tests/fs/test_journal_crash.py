"""Injected crash in the fast-persistence window (Section 9).

A ``write_persistent`` acks once the DPU journal is durable; the
in-place file write happens asynchronously afterwards.  These tests
inject a fault into exactly that apply window — the acked data must
survive in the journal.
"""

import pytest

from repro.buffers import SynthBuffer
from repro.core.storage import StorageEngine
from repro.faults import FaultInjector, FaultPlan
from repro.hardware import BLUEFIELD2, make_server
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE

#: long enough for ring -> reactor -> journal ack -> failed apply
CRASH_WINDOW_S = 2e-3


@pytest.fixture
def env():
    return Environment()


def _crashing_se(env):
    """An SE whose *filesystem* SSD fails every write for a window.

    The journal lives on a separate device (``se.pmem``), so the
    fast-persistence ack still succeeds — only the asynchronous
    in-place apply dies, which is precisely the Section 9 crash.
    """
    server = make_server(env, dpu_profile=BLUEFIELD2)
    fs_ssd = server.ssd(0)
    plan = FaultPlan(seed=5).add(
        f"ssd.{fs_ssd.name}.write", "error",
        start_s=0.0, end_s=CRASH_WINDOW_S, probability=1.0,
    )
    injector = FaultInjector(env, plan)
    fs_ssd.injector = injector
    se = StorageEngine(server, injector=injector)
    return se


class TestCrashBetweenAckAndApply:
    def test_ack_survives_failed_apply(self, env):
        se = _crashing_se(env)
        file_id = se.create("db", size=16 * MiB)
        request = se.write_persistent(
            file_id, 0, SynthBuffer(PAGE_SIZE, label="acked"))
        env.run(until=request.done)
        # The client got its durability ack...
        assert request.completed and not request.failed
        # ...then let the asynchronous apply run into the fault.
        env.run(until=CRASH_WINDOW_S)
        assert se.apply_failures.value == 1
        # The journal record was NOT truncated: the write is safe.
        assert se.journal._used >= PAGE_SIZE

    def test_healthy_apply_truncates_journal(self, env):
        server = make_server(env, dpu_profile=BLUEFIELD2)
        se = StorageEngine(server)
        file_id = se.create("db", size=16 * MiB)
        request = se.write_persistent(
            file_id, 0, SynthBuffer(PAGE_SIZE))
        env.run(until=request.done)
        env.run(until=CRASH_WINDOW_S)
        assert se.apply_failures.value == 0
        assert se.journal._used == 0
