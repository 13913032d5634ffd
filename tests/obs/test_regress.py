"""The metric-by-metric regression comparator."""

import copy
import math

from repro.bench.harness import Sweep
from repro.obs.artifact import make_artifact
from repro.obs.regress import (
    DEFAULT_TOLERANCES,
    ToleranceRule,
    compare,
    render_comparison,
)


def _artifact(cores=(0.5, 1.0), speedup=2.0, wall=1.0):
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
                   "workload_seed": 13})


class TestCompare:
    def test_identical_artifacts_all_ok(self):
        artifact = _artifact()
        report = compare(artifact, copy.deepcopy(artifact))
        assert report.ok
        assert not report.regressions
        assert not report.warnings
        # sweep rows + table + nested + wall clock all covered
        assert len(report.deltas) == 2 + 1 + 1 + 1

    def test_drift_beyond_tolerance_is_regression(self):
        report = compare(_artifact(speedup=2.0),
                         _artifact(speedup=3.0))
        assert not report.ok
        paths = [delta.path for delta in report.regressions]
        assert paths == ["figX.table_part.speedup"]

    def test_drift_within_tolerance_is_ok(self):
        report = compare(_artifact(speedup=2.0),
                         _artifact(speedup=2.04))
        assert report.ok

    def test_wall_clock_within_2x_is_ok(self):
        # The hard bound is 2x baseline + 1s slack: 1.9s vs 1.0s is
        # machine variance, not a regression.
        report = compare(_artifact(wall=1.0), _artifact(wall=1.9))
        assert report.ok
        assert not report.warnings

    def test_wall_clock_beyond_2x_is_regression(self):
        report = compare(_artifact(wall=10.0), _artifact(wall=60.0))
        assert not report.ok
        assert [delta.path for delta in report.regressions] \
            == ["figX.wall_clock_s"]

    def test_wall_clock_speedup_never_regresses(self):
        report = compare(_artifact(wall=60.0), _artifact(wall=0.5))
        assert report.ok
        assert not report.warnings

    def test_missing_metric_is_regression(self):
        candidate = _artifact()
        del candidate["experiments"]["figX"]["parts"]["table_part"]
        report = compare(_artifact(), candidate)
        assert not report.ok
        assert any("disappeared" in delta.note
                   for delta in report.regressions)

    def test_new_metric_only_warns(self):
        candidate = _artifact()
        candidate["experiments"]["figX"]["parts"]["table_part"][
            "values"]["bonus"] = 1.0
        report = compare(_artifact(), candidate)
        assert report.ok
        assert any("new metric" in delta.note
                   for delta in report.warnings)

    def test_sweep_rows_compared_by_x(self):
        report = compare(_artifact(cores=(0.5, 1.0)),
                         _artifact(cores=(0.5, 9.0)))
        assert [delta.path for delta in report.regressions] \
            == ["figX.sweep_part[x=2].cores"]

    def test_nan_on_one_side_warns(self):
        candidate = _artifact()
        candidate["experiments"]["figX"]["parts"]["table_part"][
            "values"]["speedup"] = math.nan
        report = compare(_artifact(), candidate)
        assert report.ok
        assert any("NaN" in delta.note for delta in report.warnings)

    def test_nan_on_both_sides_is_ok(self):
        baseline = _artifact()
        baseline["experiments"]["figX"]["parts"]["table_part"][
            "values"]["speedup"] = math.nan
        report = compare(baseline, copy.deepcopy(baseline))
        assert report.ok
        assert not report.warnings

    def test_custom_rule_first_match_wins(self):
        rules = (
            ToleranceRule("figX.table_part.*", rel_tol=10.0),
        ) + DEFAULT_TOLERANCES
        report = compare(_artifact(speedup=2.0),
                         _artifact(speedup=20.0), tolerances=rules)
        assert report.ok


class TestRender:
    def test_summary_line(self):
        artifact = _artifact()
        text = render_comparison(compare(artifact, artifact))
        assert "0 regressions" in text

    def test_regression_rows_shown(self):
        report = compare(_artifact(speedup=2.0),
                         _artifact(speedup=3.0))
        text = render_comparison(report)
        assert "regression" in text
        assert "figX.table_part.speedup" in text
        assert "+50.00%" in text


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
        from repro.obs.regress import render_attribution_shifts

        baseline = _attr_artifact(p99=1e-3, nic_wire=0.1)
        candidate = _attr_artifact(p99=1.5e-3, nic_wire=0.4)
        report = compare(baseline, candidate)
        assert not report.ok    # the p99 drift is flagged
        text = render_attribution_shifts(report, baseline, candidate)
        assert "p99_latency_s" in text
        assert "nic_wire" in text
        assert "node2" in text

    def test_render_is_silent_without_latency_drift(self):
        from repro.obs.regress import render_attribution_shifts

        baseline = _attr_artifact()
        candidate = copy.deepcopy(baseline)
        report = compare(baseline, candidate)
        assert render_attribution_shifts(report, baseline,
                                         candidate) == ""
