"""Unit tests for fault plans: windows, builders, matching."""

import pytest

from repro.faults import FaultPlan, FaultWindow, default_fault_plan


class TestFaultWindow:
    def test_valid_window(self):
        window = FaultWindow("ssd.*", "error", 0.0, 1.0, 0.5)
        assert window.matches("ssd.db.read")
        assert not window.matches("cpu.host")

    def test_active_is_half_open(self):
        window = FaultWindow("ssd.*", "error", 1.0, 2.0, 1.0)
        assert not window.active(0.999)
        assert window.active(1.0)
        assert window.active(1.999)
        assert not window.active(2.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultWindow("ssd.*", "explode", 0.0, 1.0, 1.0)

    def test_rejects_a_drop_window(self):
        # a link flap ("down") is the one way a frame is lost
        with pytest.raises(ValueError):
            FaultWindow("wire", "drop", 0.0, 1.0, 0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultWindow("ssd.*", "error", 0.0, 1.0, 1.5)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            FaultWindow("ssd.*", "error", 2.0, 1.0, 1.0)


class TestFaultPlan:
    def test_builders_chain(self):
        plan = (FaultPlan(seed=3)
                .ssd_errors(0.1)
                .link_flap(0.1, 0.15)
                .cpu_crash(0.2, 0.4)
                .ring_stall(0.5, 0.6))
        assert len(plan.windows) == 4

    def test_windows_for_matches_patterns(self):
        plan = FaultPlan().ssd_errors(0.1).cpu_crash(0.0, 1.0)
        assert len(plan.windows_for("ssd.db.write")) == 1
        assert len(plan.windows_for("cpu.s0.dpu.cpu")) == 1
        assert plan.windows_for("accel.s0.dpu.compression") == []

    def test_default_plan_covers_all_subsystems(self):
        plan = default_fault_plan(seed=0, duration_s=1.0)
        kinds = {(w.site, w.kind) for w in plan.windows}
        assert any(site.startswith("ssd") and kind == "error"
                   for site, kind in kinds)
        assert any(site.startswith("ssd") and kind == "delay"
                   for site, kind in kinds)
        assert any(site.startswith("cpu") and kind == "down"
                   for site, kind in kinds)
        assert any(site.startswith("cpu") and kind == "slow"
                   for site, kind in kinds)
        assert any(site.startswith("accel") and kind == "down"
                   for site, kind in kinds)
        assert any(site.startswith("ring") and kind == "down"
                   for site, kind in kinds)
        assert any(site.startswith("wire") for site, kind in kinds)

    def test_default_plan_scales_with_duration(self):
        short = default_fault_plan(seed=0, duration_s=1e-3)
        assert max(window.end_s for window in short.windows
                   if window.end_s != float("inf")) <= 1e-3
