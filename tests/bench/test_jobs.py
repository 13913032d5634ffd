"""The parallel bench runner and the artifact byte-identity gate."""

import json

from repro.bench.__main__ import main
from repro.obs.artifact import load_artifact, strip_volatile

#: Fast experiments that still cover all three part types (table,
#: nested, sweep).
SUBSET = ["a4", "a6", "fig8"]


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

    def test_parallel_matches_sequential_byte_for_byte(self, tmp_path):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        assert main(SUBSET + ["--jobs", "1",
                              "--json-out", str(seq)]) == 0
        assert main(SUBSET + ["--jobs", "2",
                              "--json-out", str(par)]) == 0
        assert _canonical(seq) == _canonical(par)

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

    def test_jobs_incompatible_with_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["fig8", "--jobs", "2",
                     "--trace-out", str(trace)]) == 2


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
