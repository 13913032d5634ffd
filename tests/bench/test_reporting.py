"""Formatting edge cases for ``repro.bench.reporting``.

Zero and extreme floats through ``_format_cell``, ragged sweeps
through ``format_sweep`` / ``_nested_table``, and the Sweep JSON round
trip the artifact depends on.
"""

import json

from repro.bench.__main__ import _nested_table
from repro.bench.harness import Sweep
from repro.bench.reporting import (
    _format_cell,
    format_sweep,
    format_table,
)
from repro.obs.artifact import decode_part, encode_part, make_artifact
from repro.obs.claims import Claim, evaluate_claim


class TestFormatCell:
    def test_zero_renders_plainly(self):
        assert _format_cell(0.0) == "0"

    def test_huge_floats_use_scientific(self):
        assert _format_cell(1.5e9) == "1.500e+09"
        assert _format_cell(-1.5e9) == "-1.500e+09"

    def test_tiny_floats_use_scientific(self):
        assert _format_cell(2.5e-7) == "2.500e-07"
        assert _format_cell(-2.5e-7) == "-2.500e-07"

    def test_moderate_floats_use_general(self):
        assert _format_cell(3.14159) == "3.142"
        assert _format_cell(999.9) == "999.9"

    def test_exact_thresholds(self):
        # 1000 and 0.001 sit on the magnitude boundaries.
        assert "e" in _format_cell(1000.0)
        assert "e" not in _format_cell(0.001)
        assert "e" in _format_cell(0.0009)

    def test_nan_and_inf_pass_through(self):
        assert _format_cell(float("nan")) == "nan"
        assert _format_cell(float("inf")) == "inf"

    def test_non_floats_stringified(self):
        assert _format_cell(7) == "7"
        assert _format_cell("label") == "label"


class TestFormatSweep:
    def test_empty_sweep(self):
        assert format_sweep(Sweep("x")) == "(empty sweep)"

    def test_ragged_sweep_uses_union_of_keys(self):
        # A series that only appears in a later row still gets a
        # column; the rows missing it render NaN.
        sweep = Sweep("x")
        sweep.add(1, a=1.0)
        sweep.add(2, a=2.0, b=20.0)
        text = format_sweep(sweep)
        header = text.splitlines()[0]
        assert "a" in header and "b" in header
        assert "nan" in text

    def test_explicit_keys_still_honored(self):
        sweep = Sweep("x")
        sweep.add(1, a=1.0, b=2.0)
        text = format_sweep(sweep, keys=["b"])
        header = text.splitlines()[0]
        assert "b" in header
        assert " a" not in header

    def test_row_with_no_values(self):
        sweep = Sweep("x")
        sweep.add(1)
        sweep.add(2, a=5.0)
        text = format_sweep(sweep)
        assert "nan" in text


class TestNestedTable:
    def test_empty_results(self):
        assert _nested_table({}) == "(no results)"

    def test_ragged_configs_nan_filled(self):
        results = {
            "one": {"a": 1.0},
            "two": {"a": 2.0, "b": 3.0},
            "three": {"b": 4.0, "c": 5.0},
        }
        text = _nested_table(results)
        header = text.splitlines()[0]
        for key in ("a", "b", "c"):
            assert key in header
        assert "nan" in text

    def test_config_with_empty_metrics(self):
        text = _nested_table({"only": {}})
        assert "only" in text


class TestSweepRoundTrip:
    def test_json_round_trip(self):
        sweep = Sweep("rate")
        sweep.add(1, a=0.5, b=2.0)
        sweep.add(2, a=1.5, b=4.0)
        rebuilt = Sweep.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert rebuilt.x_label == "rate"
        assert [row.x for row in rebuilt.rows] \
            == [row.x for row in sweep.rows]
        assert [row.values for row in rebuilt.rows] \
            == [row.values for row in sweep.rows]

    def test_round_trip_preserves_raggedness(self):
        sweep = Sweep("x")
        sweep.add(1, a=1.0)
        sweep.add(2, b=2.0)
        rebuilt = Sweep.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert rebuilt.keys() == ["a", "b"]
        assert rebuilt.rows[0].values == {"a": 1.0}
        assert rebuilt.rows[1].values == {"b": 2.0}

    def test_keys_union_order(self):
        sweep = Sweep("x")
        sweep.add(1, b=1.0)
        sweep.add(2, a=2.0, b=3.0)
        assert sweep.keys() == ["b", "a"]

    def test_round_trip_shape_assertions_still_work(self):
        # What the shape contract reads survives the artifact round
        # trip: a claim passes on the decoded sweep's encoding exactly
        # as on the original's.
        sweep = Sweep("x")
        for x in (1, 2, 3):
            sweep.add(x, up=float(x))
        rebuilt = decode_part(encode_part(sweep))
        assert encode_part(rebuilt) == encode_part(sweep)
        artifact = make_artifact(
            {"exp": {"title": "exp", "wall_clock_s": 0.0,
                     "parts": {"p": rebuilt}}},
            provenance={"python": "3", "platform": "test",
                        "workload_seed": 13})
        for kind in ("monotonic", "linear"):
            claim = Claim("T.shape", "exp", "shape", kind,
                          {"part": "p", "series": "up"})
            assert evaluate_claim(claim, artifact).status == "PASS"


class TestFormatTable:
    def test_rows_align_with_headers(self):
        text = format_table(["k", "v"], [["x", 1], ["yy", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_no_rows(self):
        text = format_table(["k", "v"], [])
        assert "k" in text and "v" in text
