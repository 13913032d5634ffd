"""Tests for the ``python -m repro.bench`` experiment runner."""

import json


from repro.bench.__main__ import EXPERIMENTS, main
from repro.obs.artifact import load_artifact, validate_artifact


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["figxx"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_runs_selected_experiment(self, capsys):
        assert main(["a4"]) == 0
        out = capsys.readouterr().out
        assert "fast persistence" in out
        assert "speedup" in out

    def test_experiment_registry_covers_all_figures(self):
        assert {"fig1", "fig2", "fig3", "fig6", "fig7", "fig8",
                "s9"} <= set(EXPERIMENTS)
        assert {"a1", "a2", "a3", "a4", "a5", "a6"} <= set(EXPERIMENTS)


class TestJsonOut:
    def test_writes_valid_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_test.json"
        assert main(["a4", "--json-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "artifact" in out
        document = load_artifact(str(path))
        assert validate_artifact(document) == []
        assert "a4" in document["experiments"]
        entry = document["experiments"]["a4"]
        assert entry["wall_clock_s"] >= 0
        assert entry["parts"]

    def test_provenance_recorded(self, tmp_path):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        provenance = load_artifact(str(path))["provenance"]
        assert provenance["argv"][0] == "a4"
        assert provenance["workload_seed"] == 13


class TestCheck:
    def test_pass_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["a4", "fig7", "--json-out", str(path)])
        capsys.readouterr()
        assert main(["--check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "passed" in out and "skipped" in out

    def test_failed_claim_exit_one(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["fig7", "--json-out", str(path)])
        document = json.loads(path.read_text())
        # Invert the host-cycles-saved result so F7 claims fail.
        values = document["experiments"]["fig7"]["parts"]["rdma"][
            "values"]
        for key in list(values):
            values[key] = 0.01
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["--check", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_artifact_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"schema\": \"nope\"}")
        assert main(["--check", str(path)]) == 2
        assert "artifact" in capsys.readouterr().err


class TestCompare:
    """``--identity`` is the one comparison; the blessed-baseline cases
    live in ``test_jobs.TestIdentityGate``."""

    def test_identical_files_no_regressions(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        capsys.readouterr()
        assert main(["--identity", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        main(["a4", "--json-out", str(baseline)])
        candidate = tmp_path / "cand.json"
        document = json.loads(baseline.read_text())
        document["experiments"]["a4"]["parts"]["persistence"][
            "values"]["speedup"] *= 1.01
        candidate.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["--identity", str(baseline), str(candidate)]) == 1
        err = capsys.readouterr().err
        assert "a4.persistence.speedup: 2.22" in err
        assert "1 differences" in err

    def test_too_many_paths_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        assert main(["--identity", str(path), str(path),
                     str(path)]) == 2

    def test_run_then_compare_against_baseline(self, tmp_path,
                                               capsys):
        baseline = tmp_path / "base.json"
        main(["a4", "fig7", "--json-out", str(baseline)])
        capsys.readouterr()
        assert main(["a4", "--identity", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "compared 1 of 2 baseline experiments" in out
        assert "identical" in out


class TestModeFlags:
    """A flag that runs nothing refuses what it cannot use."""

    def test_check_refuses_ids_and_outputs(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        capsys.readouterr()
        other = tmp_path / "other.json"
        assert main(["a4", "--check", str(path)]) == 2
        assert main(["--check", str(path),
                     "--json-out", str(other)]) == 2
        captured = capsys.readouterr()
        assert "run no experiment" in captured.err
        assert "fast persistence" not in captured.out    # nothing ran
        assert not other.exists()

    def test_two_path_identity_refuses_ids_and_outputs(self, tmp_path,
                                                       capsys):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        capsys.readouterr()
        other = tmp_path / "other.json"
        assert main(["a4", "--identity", str(path), str(path)]) == 2
        assert main(["--identity", str(path), str(path),
                     "--json-out", str(other)]) == 2
        assert "run no experiment" in capsys.readouterr().err
        assert not other.exists()


class TestAttrOut:
    def test_writes_attribution_report(self, tmp_path, capsys):
        path = tmp_path / "attr.json"
        assert main(["fig8", "--attr-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "attribution" in out
        assert "top bottlenecks" in out
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.obs/attr-report"
        entry = document["experiments"]["fig8"]
        assert entry["requests"] > 0
        assert entry["max_conservation_error_s"] <= 1e-9
        assert entry["totals_s"]
        assert entry["top_bottlenecks"]

    def test_no_traceable_experiment_exit_three(self, tmp_path,
                                                capsys):
        path = tmp_path / "attr.json"
        assert main(["a4", "--attr-out", str(path)]) == 3
        err = capsys.readouterr().err
        assert "no traceable" in err
        assert not path.exists()    # probe file cleaned up


class TestOutputPaths:
    """Bad invocations exit 2 before anything is created or run."""

    def test_unknown_experiment_leaves_no_probe_file(self, tmp_path,
                                                     capsys):
        paths = [tmp_path / name
                 for name in ("t.json", "a.json", "b.json")]
        assert main(["nosuch", "--trace-out", str(paths[0]),
                     "--attr-out", str(paths[1]),
                     "--json-out", str(paths[2])]) == 2
        assert "unknown" in capsys.readouterr().err
        assert not any(path.exists() for path in paths)

    def test_unwritable_json_out_fails_before_running(self, tmp_path,
                                                      capsys):
        trace = tmp_path / "t.json"
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["fig8", "--trace-out", str(trace),
                     "--json-out", str(missing)]) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert "Figure 8" not in captured.out    # nothing ran
        assert not trace.exists()    # the earlier probe is undone
