"""The parallel bench runner and the artifact identity gate."""

import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.__main__ import _run_unit, _units, main
from repro.bench.harness import ROWS
from repro.obs.artifact import load_artifact, strip_volatile

#: Fast experiments that still cover all three part types (table,
#: nested, sweep).
SUBSET = ["a4", "a6", "fig8"]


@pytest.fixture
def small_slo(monkeypatch):
    """``slo``, the row experiment, with every row's load window and
    drain at a twenty-fifth: ten small units for the pool to hand out.
    The failover rows go to a fiftieth, so their whole run ends before
    node1's crash starts: a crash row runs at any length."""
    def shrunk(row, share):
        return replace(row, duration_s=row.duration_s / share,
                       drain_s=row.drain_s / share)

    rows = {name: shrunk(row, 25) for name, row in ROWS["slo"].items()}
    for name in ("regional_failover-p", "regional_failover-u"):
        rows[name] = shrunk(ROWS["slo"][name], 50)
    monkeypatch.setitem(ROWS, "slo", rows)


@pytest.fixture
def small_scale(monkeypatch):
    """``scale`` cut to six small rows: its traced row, ``rebalance``,
    at a third of its window and drain and 10 000 ops/s (node1 still
    crashes, in the drain), the other five at a 0.1 ms window."""
    rows = ROWS["scale"]
    shrunk = {name: replace(rows[name], duration_s=1e-4)
              for name in ("goodput.1", "goodput.2", "fault_free",
                           "norebalance", "rack.8")}
    traced = rows["rebalance"]
    shrunk["rebalance"] = replace(traced, rate=10_000.0,
                                  duration_s=traced.duration_s / 3,
                                  drain_s=traced.drain_s / 3)
    monkeypatch.setitem(ROWS, "scale", shrunk)


#: the blessed artifact the CLI is pointed at in CI
BASELINE = Path(__file__).resolve().parents[2] / "BENCH_baseline.json"


def _canonical(path):
    return json.dumps(strip_volatile(load_artifact(str(path))),
                      sort_keys=True)


class TestJobsRunner:
    def test_parallel_run_succeeds(self, tmp_path):
        out = tmp_path / "par.json"
        assert main(SUBSET + ["--jobs", "2",
                              "--json-out", str(out)]) == 0
        document = load_artifact(str(out))
        assert set(document["experiments"]) == set(SUBSET)
        assert document["total_wall_clock_s"] > 0

    def test_parallel_matches_sequential_byte_for_byte(
            self, tmp_path, small_slo, small_scale):
        # slo's and scale's rows land on both workers, in whatever
        # order they finish; the parts are assembled in row order, and
        # the traced units' (fig8's, scale's rebalance row's) exports
        # are written in unit order, all the same
        written = []
        for jobs in ("1", "2"):
            run, trace, attr = (tmp_path / f"{name}{jobs}.json"
                                for name in ("run", "trace", "attr"))
            assert main(SUBSET + ["slo", "scale", "--jobs", jobs,
                                  "--json-out", str(run),
                                  "--trace-out", str(trace),
                                  "--attr-out", str(attr)]) == 0
            written.append((_canonical(run), trace.read_bytes(),
                            attr.read_bytes()))
        assert written[0] == written[1]
        document = json.loads(written[0][2])
        assert list(document["experiments"]) == ["fig8", "scale"]

    def test_every_unit_result_survives_pickling(self, small_slo):
        units = _units("slo") + _units("fig8")
        assert len(units) == len(ROWS["slo"]) + 1
        for unit in units:
            result = _run_unit(unit, False)[3]
            assert pickle.loads(pickle.dumps(result)) == result

    def test_sequential_artifact_records_total_wall_clock(
            self, tmp_path):
        out = tmp_path / "seq.json"
        assert main(["a4", "--json-out", str(out)]) == 0
        document = load_artifact(str(out))
        assert document["total_wall_clock_s"] >= \
            document["experiments"]["a4"]["wall_clock_s"]

    def test_jobs_zero_autodetects_cpu_count(self, tmp_path):
        out = tmp_path / "auto.json"
        assert main(["a4", "--jobs", "0",
                     "--json-out", str(out)]) == 0
        assert set(load_artifact(str(out))["experiments"]) == {"a4"}

    def test_jobs_negative_rejected(self):
        assert main(["a4", "--jobs", "-1"]) == 2


class TestIdentityGate:
    def test_identical_artifacts_pass(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["a4", "--json-out", str(out)]) == 0
        assert main(["--identity", str(out), str(out)]) == 0

    def test_wall_clock_differences_are_ignored(self, tmp_path):
        # Two separate sequential runs: every simulated metric is
        # deterministic, only wall clocks differ.
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        assert main(["a4", "--json-out", str(first)]) == 0
        assert main(["a4", "--json-out", str(second)]) == 0
        assert main(["--identity", str(first), str(second)]) == 0

    def test_simulated_drift_fails(self, tmp_path):
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        assert main(["a4", "--json-out", str(first)]) == 0
        document = load_artifact(str(first))
        part = next(iter(
            document["experiments"]["a4"]["parts"].values()))
        if part["type"] == "table":
            name = next(iter(part["values"]))
            part["values"][name] += 1.0
        else:  # nested
            config = next(iter(part["rows"]))
            name = next(iter(part["rows"][config]))
            part["rows"][config][name] += 1.0
        with open(second, "w") as handle:
            json.dump(document, handle)
        assert main(["--identity", str(first), str(second)]) == 1

    def test_missing_artifact_is_usage_error(self, tmp_path):
        assert main(["--identity", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 2
        # the one-path form finds out before anything runs
        assert main(["a4", "--identity",
                     str(tmp_path / "nope.json")]) == 2

    def test_one_percent_edit_exits_one_and_names_the_path(
            self, tmp_path, capsys):
        # x1.01 sat inside the 5 % band the old tolerance gate allowed
        document = json.loads(BASELINE.read_text())
        document["experiments"]["scale"]["parts"]["rack"]["rows"][
            "64"]["dpu_cores_per_node"] *= 1.01
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(document))
        assert main(["--identity", str(BASELINE), str(edited)]) == 1
        err = capsys.readouterr().err
        assert "scale.rack.64.dpu_cores_per_node: 2.19980" in err
        assert "1 differences" in err

    def test_what_names_the_run_is_shown_not_compared(self, tmp_path,
                                                      capsys):
        document = json.loads(BASELINE.read_text())
        document["provenance"].update(
            src_sha256="0" * 64, python="3.9.0",
            implementation="PyPy", platform="elsewhere", argv=["-j4"])
        document["total_wall_clock_s"] *= 3
        for entry in document["experiments"].values():
            entry["wall_clock_s"] *= 3
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(document))
        assert main(["--identity", str(BASELINE), str(moved)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        for shown in ("provenance.src_sha256", "0" * 64, "elsewhere",
                      "experiments.slo.wall_clock_s",
                      "total_wall_clock_s"):
            assert shown in out
        # an input that defines results is still held to the baseline
        document["provenance"]["workload_seed"] += 1
        moved.write_text(json.dumps(document))
        assert main(["--identity", str(BASELINE), str(moved)]) == 1
        assert "provenance.workload_seed: 13 -> 14" \
            in capsys.readouterr().err

    def test_a_moved_source_hash_gets_one_line(self, tmp_path, capsys):
        document = json.loads(BASELINE.read_text())
        blessed = document["provenance"]["src_sha256"]
        same = tmp_path / "same.json"
        same.write_text(json.dumps(document))
        assert main(["--identity", str(BASELINE), str(same)]) == 0
        assert "source differs" not in capsys.readouterr().out
        document["provenance"]["src_sha256"] = "f" * 64
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(document))
        assert main(["--identity", str(BASELINE), str(moved)]) == 0
        out = capsys.readouterr().out
        line = (f"source differs: {BASELINE} was made from src_sha256 "
                f"{blessed[:12]}, {moved} from ffffffffffff")
        assert out.count("source differs") == 1
        assert line in out
        assert out.index(line) < out.index("not compared")

    def test_unequal_experiment_sets_exit_one(self, tmp_path, capsys):
        document = json.loads(BASELINE.read_text())
        del document["experiments"]["slo"]
        fewer = tmp_path / "fewer.json"
        fewer.write_text(json.dumps(document))
        assert main(["--identity", str(BASELINE), str(fewer)]) == 1
        assert "slo: present -> absent" in capsys.readouterr().err
        assert main(["--identity", str(fewer), str(BASELINE)]) == 1
        assert "slo: absent -> present" in capsys.readouterr().err

    def test_one_path_form_compares_exactly_what_ran(self, capsys):
        assert main(["fig8", "--identity", str(BASELINE)]) == 0
        out = capsys.readouterr().out
        assert "compared 1 of 19 baseline experiments" in out
        assert "identical" in out

    def test_one_path_form_fails_on_drift(self, tmp_path, capsys):
        document = json.loads(BASELINE.read_text())
        values = document["experiments"]["a4"]["parts"]["persistence"][
            "values"]
        values["speedup"] *= 1.01
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(document))
        assert main(["a4", "--jobs", "2",
                     "--identity", str(edited)]) == 1
        assert "a4.persistence.speedup" in capsys.readouterr().err
