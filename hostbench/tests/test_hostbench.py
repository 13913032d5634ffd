"""Self-tests of the benchmark (not part of tier-1).

Run from the repo root:
``PYTHONPATH=src python -m pytest hostbench/tests -q``.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import hostbench
from hostbench import compare, manifest, runner
from hostbench.spec import (CHECK_METRIC, DEFAULT_SEED, END_TO_END,
                            LAYERS, PER_LAYER, WORKLOADS)

hostbench.ensure_repro_importable()

ROOT = os.path.dirname(runner.PACKAGE_DIR)
ALL = list(WORKLOADS)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def traced13():
    started = time.perf_counter()
    result = runner.run_suite(ALL, seed=13, repeats=1, traced=True,
                              reduced=True)
    result["elapsed_s"] = time.perf_counter() - started
    return result


@pytest.fixture(scope="module")
def plain13():
    return runner.run_suite(ALL, seed=13, repeats=2, reduced=True)


@pytest.fixture(scope="module")
def plain14():
    return runner.run_suite(ALL, seed=14, repeats=2, reduced=True)


def test_reduced_pass_is_fast_and_every_check_passes(traced13):
    assert traced13["elapsed_s"] < 30
    assert list(traced13["workloads"]) == ALL
    for name, record in traced13["workloads"].items():
        assert record["checks"]["attempted"] >= 1, name
        assert record["checks"]["failures"] == [], name
        assert record["end_to_end"][CHECK_METRIC[0]] == 0, name


def test_self_times_sum_to_the_traced_run_collect_span(traced13):
    for name, record in traced13["workloads"].items():
        layers = record["per_layer"]
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        traced_span = (layers["trace.overhead_ratio"]
                       * record["end_to_end"]["wall_s"])
        assert total == pytest.approx(traced_span, rel=0.02), name
        assert layers["trace.samples"] > 0, name


def test_digest_repeats_at_one_seed_and_moves_with_the_seed(
        traced13, plain13, plain14):
    for name in ALL:
        first = plain13["workloads"][name]
        assert first["digest"] == traced13["workloads"][name]["digest"]
        assert first["digest"] != plain14["workloads"][name]["digest"]
        # the sampler never perturbs simulated results either
        for metric, *_ in END_TO_END:
            if metric.startswith("sim_"):
                assert (first["end_to_end"][metric]
                        == traced13["workloads"][name]["end_to_end"][metric])


def test_held_out_seed_passes_determinism_and_invariants(plain14):
    for name, record in plain14["workloads"].items():
        checks = record["checks"]
        assert checks["failures"] == [], name
        # two repeats: the invariants twice plus digest_repeats once
        assert checks["attempted"] >= 3, name


def test_compare_passes_a_file_against_itself(plain13, tmp_path):
    rows = compare.compare(plain13, plain13)
    # a noisy pair of reduced repeats may make a timed row "unresolved"
    assert rows and all(row["verdict"] in ("ok", "unresolved")
                        for row in rows)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(plain13))
    assert compare.main([str(path), str(path)]) == 0


def test_compare_flags_a_synthetic_wall_regression(plain13, tmp_path):
    slower = copy.deepcopy(plain13)
    slower["workloads"]["dds_serving"]["end_to_end"]["wall_s"] *= 1.2
    flagged = [(row["workload"], row["metric"])
               for row in compare.compare(plain13, slower)
               if row["verdict"] == "REGRESSION"]
    assert flagged == [("dds_serving", "wall_s")]
    base, new = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(plain13))
    new.write_text(json.dumps(slower))
    assert compare.main([str(base), str(new)]) == 1


def test_compare_shows_raw_seconds_and_marks_a_speed_difference(plain13):
    slow_box = copy.deepcopy(plain13)
    raw = slow_box["workloads"]["dds_serving"]["raw"]
    raw["speed"] /= 1.5             # same work on a box 1.5x slower:
    raw["wall_s"] *= 1.5            # raw seconds up, normalised equal
    rows = {(row["workload"], row["metric"]): row
            for row in compare.compare(plain13, slow_box)}
    row = rows["dds_serving", "wall_s"]
    assert row["ratio"] == 1.0 and row["verdict"] in ("ok", "unresolved")
    assert row["raw_ratio"] == pytest.approx(1.5)
    assert row["speed_ratio"] == pytest.approx(1 / 1.5)
    assert row["speed_differs"]
    assert not rows["cluster_chaos", "wall_s"]["speed_differs"]
    assert rows["dds_serving", "peak_rss_mb"]["raw_ratio"] is None


def test_compare_flags_check_failures_sim_drift_and_noise(plain13):
    broken = copy.deepcopy(plain13)
    record = broken["workloads"]["scan_pushdown"]
    record["end_to_end"][CHECK_METRIC[0]] = 0.25
    record["end_to_end"]["sim_host_cores"] *= 1.0001
    record["digest"] = "0" * 64
    noisy = broken["workloads"]["cluster_chaos"]
    noisy["per_layer"]["harness.repeat_spread"] = 0.5
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in compare.compare(plain13, broken)}
    assert verdicts["scan_pushdown", CHECK_METRIC[0]] == "REGRESSION"
    assert verdicts["scan_pushdown", "sim_host_cores"] == "REGRESSION"
    assert verdicts["scan_pushdown", "digest"] == "REGRESSION"
    assert verdicts["cluster_chaos", "wall_s"] == "unresolved"
    assert verdicts["cluster_chaos", "peak_rss_mb"] == "ok"


def test_names_agree_between_benchmark_json_spec_and_runner(traced13):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == manifest.benchmark_json()
    assert [w["name"] for w in committed["workloads"]] == ALL
    end_to_end = [m["name"] for m in committed["end_to_end"]]
    per_layer = [m["name"] for m in committed["per_layer"]]
    assert "setup_s" in end_to_end
    assert len(per_layer) == len(PER_LAYER) == 77
    for name in ALL + end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer + ALL)) == len(
        end_to_end + per_layer + ALL)
    for record in traced13["workloads"].values():
        assert list(record["end_to_end"]) == end_to_end + [CHECK_METRIC[0]]
        assert sorted(record["per_layer"]) == sorted(per_layer)


def test_baseline_json_pins_both_sizes_and_the_reduced_pins_hold(plain13):
    with open(runner.BASELINE_PATH) as handle:
        baseline = json.load(handle)
    assert baseline["seed"] == DEFAULT_SEED
    for size in ("full", "reduced"):
        assert list(baseline["digests"][size]) == ALL
        for pin in baseline["digests"][size].values():
            assert re.fullmatch(r"[0-9a-f]{64}", pin)
    for name, record in plain13["workloads"].items():
        assert record["digest"] == baseline["digests"]["reduced"][name]


@pytest.mark.parametrize("pins", [
    {"digests": {"reduced": {"dds_serving": "0" * 64}}},    # wrong
    {"digests": {"reduced": {}}},                           # no pin
    None,                                                   # no file
])
def test_a_wrong_or_missing_pin_is_a_failed_check(pins, tmp_path,
                                                  monkeypatch):
    path = tmp_path / "baseline.json"
    if pins is not None:
        path.write_text(json.dumps(pins))
    monkeypatch.setattr(runner, "BASELINE_PATH", str(path))
    result = runner.run_workload("dds_serving", seed=DEFAULT_SEED,
                                 repeats=1, reduced=True)
    checks = result["workloads"]["dds_serving"]["checks"]
    assert checks["failures"] == ["r0.digest_pinned"]
    assert runner.driver_line(result).startswith('{"correct": false')


def test_hostbench_never_imports_bench_fluid_or_benchmarks():
    script = (
        "import sys, hostbench, hostbench.runner, hostbench.compare, "
        "hostbench.noise, hostbench.manifest\n"
        "hostbench.ensure_repro_importable()\n"
        "from hostbench.spec import WORKLOADS\n"
        "from hostbench.workloads import load\n"
        "for name in WORKLOADS: load(name)\n"
        "bad = [m for m in sys.modules if m.startswith('repro.bench') "
        "or m == 'repro.sim.fluid' or m.split('.')[0] == 'benchmarks']\n"
        "assert 'repro.cluster' in sys.modules\n"
        "sys.exit(repr(bad) if bad else 0)\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _driver_run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "-m", "hostbench", "--workload", "dds_serving",
         "--seed", "5", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


@pytest.mark.parametrize("trace, expected", [
    ("0", [name for name, *_ in END_TO_END]),
    ("1", [name for name, *_ in PER_LAYER]),
])
def test_driver_protocol_last_line(trace, expected):
    done = _driver_run(ROOT, "--trace", trace, "--reduced")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == expected
    for value in line["metrics"].values():
        assert sorted(value) == ["unit", "value"]
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] != 0 for v in line["metrics"].values())


def test_exits_nonzero_without_a_result_when_the_repo_is_absent(tmp_path):
    shutil.copytree(runner.PACKAGE_DIR, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _driver_run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
