"""The exact artifact comparison behind ``--identity``."""

import copy
import json
import math

from repro.bench.harness import Sweep
from repro.obs.artifact import make_artifact, strip_volatile
from repro.obs.regress import differences, render_differences


def _artifact(cores=(0.5, 1.0), speedup=2.0, wall=1.0, **provenance):
    sweep = Sweep("rate")
    for index, value in enumerate(cores):
        sweep.add(index + 1, cores=value)
    return make_artifact({
        "figX": {
            "title": "Figure X",
            "wall_clock_s": wall,
            "parts": {
                "sweep_part": sweep,
                "table_part": {"speedup": speedup},
                "nested_part": {"cfg": {"m": 1.0}},
            },
        },
    }, provenance={"python": "3", "platform": "test",
                   "workload_seed": 13, **provenance})


def _paths(baseline, candidate):
    return [found.path for found in differences(baseline, candidate)]


def _table(artifact):
    return artifact["experiments"]["figX"]["parts"]["table_part"][
        "values"]


class TestCompare:
    def test_identical_artifacts_all_ok(self):
        artifact = _artifact()
        assert differences(artifact, copy.deepcopy(artifact)) == []

    def test_drift_beyond_tolerance_is_regression(self):
        # the tolerance is zero: x1.01 sat inside the old 5 % band
        (found,) = differences(_artifact(speedup=2.0),
                               _artifact(speedup=2.02))
        assert found.path == "figX.table_part.speedup"
        assert (found.baseline, found.candidate) == (2.0, 2.02)
        assert found.describe() == "figX.table_part.speedup: 2.0 -> 2.02"

    def test_wall_clock_speedup_never_regresses(self):
        # nor does a slowdown: wall clocks are shown, never compared
        # (CI's headroom step owns the budget)
        slow, fast = _artifact(wall=60.0), _artifact(wall=0.5)
        slow["total_wall_clock_s"], fast["total_wall_clock_s"] = 99, 1
        assert differences(slow, fast) == []
        assert differences(fast, slow) == []

    def test_wall_clock_within_2x_is_ok(self):
        assert differences(_artifact(wall=1.0), _artifact(wall=1.9)) == []

    def test_what_names_the_run_is_not_compared(self):
        here = _artifact(src_sha256="aaa",
                         implementation="CPython", argv=["a4"])
        there = _artifact(src_sha256="bbb",
                          implementation="PyPy", argv=["--jobs", "4"])
        there["provenance"].update(python="4", platform="elsewhere")
        assert differences(here, there) == []

    def test_inputs_that_define_results_are_compared(self):
        there = _artifact()
        there["provenance"]["workload_seed"] = 14
        assert _paths(_artifact(), there) == ["provenance.workload_seed"]
        there = _artifact(hardware_profiles={"bf2": {"arm_cores": 8}})
        here = _artifact(hardware_profiles={"bf2": {"arm_cores": 16}})
        assert _paths(here, there) == ["provenance.hardware_profiles"]

    def test_missing_metric_is_regression(self):
        candidate = _artifact()
        del candidate["experiments"]["figX"]["parts"]["table_part"]
        (found,) = differences(_artifact(), candidate)
        assert (found.path, found.candidate) \
            == ("figX.table_part.speedup", None)
        assert found.describe().endswith("2.0 -> absent")

    def test_new_metric_is_a_mismatch(self):
        candidate = _artifact()
        _table(candidate)["bonus"] = 1.0
        (found,) = differences(_artifact(), candidate)
        assert (found.path, found.baseline, found.candidate) \
            == ("figX.table_part.bonus", None, 1.0)

    def test_sweep_rows_compared_by_x(self):
        assert _paths(_artifact(cores=(0.5, 1.0)),
                      _artifact(cores=(0.5, 9.0))) \
            == ["figX.sweep_part[x=2].cores"]

    def test_nan_on_one_side_is_a_mismatch(self):
        candidate = _artifact()
        _table(candidate)["speedup"] = math.nan
        assert _paths(_artifact(), candidate) \
            == ["figX.table_part.speedup"]
        assert _paths(candidate, _artifact()) \
            == ["figX.table_part.speedup"]

    def test_nan_on_both_sides_is_ok(self):
        baseline = _artifact()
        _table(baseline)["speedup"] = math.nan
        assert differences(baseline, copy.deepcopy(baseline)) == []

    def test_experiment_on_one_side_is_one_difference(self):
        both = _artifact()
        both["experiments"]["figY"] = copy.deepcopy(
            both["experiments"]["figX"])
        (found,) = differences(both, _artifact())
        assert found.describe() == "figY: present -> absent"
        (found,) = differences(_artifact(), both)
        assert found.describe() == "figY: absent -> present"

    def test_verdict_is_canonical_json_equality(self):
        """Whatever moves a byte of the stripped document is found:
        titles, axis labels and row order as much as values."""
        def swap_rows(doc):
            doc["experiments"]["figX"]["parts"]["sweep_part"][
                "rows"].reverse()

        def retitle(doc):
            doc["experiments"]["figX"]["title"] = "Figure Y"

        def relabel(doc):
            doc["experiments"]["figX"]["parts"]["sweep_part"][
                "x_label"] = "load"

        def reversion(doc):
            doc["schema_version"] = 2

        baseline = _artifact()
        for tamper in (swap_rows, retitle, relabel, reversion):
            candidate = copy.deepcopy(baseline)
            tamper(candidate)
            assert json.dumps(strip_volatile(baseline), sort_keys=True) \
                != json.dumps(strip_volatile(candidate), sort_keys=True)
            assert len(differences(baseline, candidate)) == 1, tamper


class TestRender:
    def test_summary_line(self):
        baseline, candidate = _artifact(speedup=2.0), _artifact(speedup=3.0)
        text = render_differences(differences(baseline, candidate),
                                  baseline, candidate)
        assert text.splitlines() == [
            "  figX.table_part.speedup: 2.0 -> 3.0", "1 differences"]
        assert render_differences([], baseline, baseline) == ""

    def test_regression_rows_shown(self):
        baseline, candidate = _artifact(), _artifact()
        for index in range(25):
            _table(candidate)[f"extra{index:02d}"] = float(index)
        lines = render_differences(differences(baseline, candidate),
                                   baseline, candidate).splitlines()
        assert len(lines) == 22
        assert lines[19].startswith("  figX.table_part.extra19")
        assert lines[20:] == ["  ... and 5 more", "25 differences"]


def _attr_artifact(p99=1e-3, nic_wire=0.1, ssd=0.3):
    return make_artifact({
        "attr": {
            "title": "AT",
            "wall_clock_s": 1.0,
            "parts": {
                "breakdown": {
                    "node0": {"ssd": ssd, "dpu_arm": 0.1},
                    "node2": {"nic_wire": nic_wire},
                },
                "latency": {"p99_latency_s": p99},
            },
        },
    }, provenance={"python": "3", "platform": "test",
                   "workload_seed": 13})


class TestAttributionShifts:
    def test_shifts_rank_the_biggest_mover_first(self):
        from repro.obs.regress import attribution_shifts

        baseline = _attr_artifact(nic_wire=0.1)
        candidate = _attr_artifact(nic_wire=0.4)
        shifts = attribution_shifts(baseline, candidate)
        assert shifts[0].node == "node2"
        assert shifts[0].category == "nic_wire"
        assert shifts[0].share_delta > 0
        # shares, not raw seconds: both sides normalize to their own
        # total, so every shift sums to ~zero across segments
        assert math.isclose(
            sum(s.share_delta for s in shifts), 0.0, abs_tol=1e-12)

    def test_uniform_slowdown_shows_no_shift(self):
        from repro.obs.regress import attribution_shifts

        baseline = _attr_artifact()
        candidate = _attr_artifact(nic_wire=0.2, ssd=0.6)
        candidate["experiments"]["attr"]["parts"]["breakdown"][
            "rows"]["node0"]["dpu_arm"] = 0.2
        shifts = attribution_shifts(baseline, candidate)
        assert all(abs(s.share_delta) < 1e-12 for s in shifts)

    def test_missing_breakdown_yields_nothing(self):
        from repro.obs.regress import attribution_shifts

        assert attribution_shifts(_artifact(), _artifact()) == []

    def test_render_names_the_moved_segment(self):
        baseline = _attr_artifact(p99=1e-3, nic_wire=0.1)
        candidate = _attr_artifact(p99=1.5e-3, nic_wire=0.4)
        found = differences(baseline, candidate)
        assert "attr.latency.p99_latency_s" in [d.path for d in found]
        text = render_differences(found, baseline, candidate)
        assert "p99_latency_s: 0.001 -> 0.0015" in text
        assert "of attributed time moved into nic_wire on node2" in text

    def test_render_is_silent_without_latency_drift(self):
        baseline = _attr_artifact()
        candidate = copy.deepcopy(baseline)
        assert render_differences(differences(baseline, candidate),
                                  baseline, candidate) == ""
        # a value moved, the breakdown's shares did not: the path is
        # reported and no segment is blamed
        candidate = _attr_artifact(p99=1.5e-3)
        text = render_differences(differences(baseline, candidate),
                                  baseline, candidate)
        assert "p99_latency_s" in text
        assert "attributed time" not in text
