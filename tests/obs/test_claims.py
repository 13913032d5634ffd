"""The declarative paper-claims registry and its evaluator."""

from pathlib import Path

from repro.bench.__main__ import EXPERIMENTS
from repro.bench.harness import Sweep
from repro.obs.artifact import load_artifact, make_artifact
from repro.obs.claims import (
    CLAIMS,
    Claim,
    evaluate_all,
    evaluate_claim,
    render_claim_report,
)


def _artifact(**experiments):
    return make_artifact({
        key: {"title": key, "wall_clock_s": 0.0, "parts": parts}
        for key, parts in experiments.items()
    }, provenance={"python": "3", "platform": "test",
                   "workload_seed": 13})


def _sweep(x_label="x", **series):
    lengths = {len(values) for values in series.values()}
    assert len(lengths) == 1
    sweep = Sweep(x_label)
    n = lengths.pop()
    for index in range(n):
        sweep.add(index + 1, **{name: values[index]
                                for name, values in series.items()})
    return sweep


def _claim(kind, experiment="exp", **params):
    return Claim("T.test", experiment, "test claim", kind, params)


class TestRegistry:
    def test_covers_every_paper_figure(self):
        experiments = {claim.experiment for claim in CLAIMS}
        assert {"fig1", "fig2", "fig3", "fig6", "fig7", "fig8",
                "s9"} <= experiments

    def test_ids_unique(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_no_experiment_is_unbound(self):
        bound = {claim.experiment for claim in CLAIMS}
        assert sorted(set(EXPERIMENTS) - bound) == []
        assert sorted(bound - set(EXPERIMENTS)) == []

    def test_blessed_baseline_is_claim_clean(self):
        # A claim edit the committed numbers contradict fails here,
        # in milliseconds, without running the suite; a SKIP would
        # mean the baseline lacks an experiment some claim reads.
        baseline = (Path(__file__).resolve().parents[2]
                    / "BENCH_baseline.json")
        results = evaluate_all(load_artifact(str(baseline)))
        assert [(result.claim.id, result.status, result.measured
                 or result.detail) for result in results
                if result.status != "PASS"] == []


class TestStatuses:
    def test_skip_when_experiment_absent(self):
        claim = _claim("band", experiment="missing",
                       part="p", metric="m", lo=0, hi=1)
        result = evaluate_claim(claim, _artifact())
        assert result.status == "SKIP"

    def test_fail_when_part_missing(self):
        claim = _claim("band", part="nope", metric="m", lo=0, hi=1)
        artifact = _artifact(exp={"p": {"m": 0.5}})
        result = evaluate_claim(claim, artifact)
        assert result.status == "FAIL"
        assert "nope" in result.detail

    def test_fail_when_series_missing(self):
        claim = _claim("monotonic", part="p", series="ghost")
        artifact = _artifact(exp={"p": _sweep(a=[1.0, 2.0])})
        result = evaluate_claim(claim, artifact)
        assert result.status == "FAIL"
        assert "ghost" in result.detail


class TestCheckKinds:
    def test_monotonic(self):
        artifact = _artifact(exp={"p": _sweep(up=[1.0, 2.0, 3.0],
                                              down=[3.0, 2.0, 1.0])})
        ok = _claim("monotonic", part="p", series="up")
        bad = _claim("monotonic", part="p", series=["up", "down"])
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(bad, artifact).status == "FAIL"

    def test_linear(self):
        artifact = _artifact(exp={"p": _sweep(
            lin=[1.0, 2.0, 3.0, 4.0], jump=[1.0, 1.0, 1.0, 9.0])})
        ok = _claim("linear", part="p", series="lin", r2_floor=0.99)
        bad = _claim("linear", part="p", series="jump",
                     r2_floor=0.99)
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(bad, artifact).status == "FAIL"

    def test_dominates(self):
        artifact = _artifact(exp={"p": _sweep(big=[10.0, 20.0],
                                              small=[1.0, 2.0])})
        ok = _claim("dominates", part="p", winner="big",
                    loser="small", min_factor=5.0)
        bad = _claim("dominates", part="p", winner="big",
                     loser="small", min_factor=50.0)
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(bad, artifact).status == "FAIL"

    def test_ratio_at(self):
        artifact = _artifact(exp={"p": _sweep(a=[2.0, 100.0],
                                              b=[1.0, 1.0])})
        ok = _claim("ratio_at", part="p", numerator="a",
                    denominator="b", row="last", min_factor=50.0)
        first = _claim("ratio_at", part="p", numerator="a",
                       denominator="b", row="first", min_factor=50.0)
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(first, artifact).status == "FAIL"

    def test_band_on_table_nested_and_sweep(self):
        artifact = _artifact(exp={
            "t": {"m": 0.5},
            "n": {"cfg": {"m": 2.0}},
            "s": _sweep(m=[1.0, 3.0]),
        })
        table = _claim("band", part="t", metric="m", lo=0, hi=1)
        nested = _claim("band", part="n", config="cfg", metric="m",
                        lo=1.5, hi=2.5)
        sweep_row = _claim("band", part="s", series="m", row=2,
                           lo=2.5, hi=3.5)
        for claim in (table, nested, sweep_row):
            assert evaluate_claim(claim, artifact).status == "PASS"
        out_of_band = _claim("band", part="t", metric="m",
                             lo=0.8, hi=1.0)
        assert evaluate_claim(out_of_band, artifact).status == "FAIL"

    def test_band_wildcard_config(self):
        artifact = _artifact(exp={
            "n": {"c1": {"m": 1.0}, "c2": {"m": 1.0}},
        })
        ok = _claim("band", part="n", config="*", metric="m",
                    lo=1.0, hi=1.0)
        assert evaluate_claim(ok, artifact).status == "PASS"
        artifact2 = _artifact(exp={
            "n": {"c1": {"m": 1.0}, "c2": {"m": 5.0}},
        })
        assert evaluate_claim(ok, artifact2).status == "FAIL"
        # a list of configs bands exactly those and ignores the rest
        some = _claim("band", part="n", config=["c1"], metric="m",
                      lo=1.0, hi=1.0)
        assert evaluate_claim(some, artifact2).status == "PASS"
        both = _claim("band", part="n", config=["c1", "c2"], metric="m",
                      lo=1.0, hi=1.0)
        assert evaluate_claim(both, artifact2).status == "FAIL"

    def test_order(self):
        artifact = _artifact(exp={"t": {"lo": 1.0, "hi": 2.0}})
        ok = _claim("order", part="t", smaller="lo", larger="hi")
        bad = _claim("order", part="t", smaller="hi", larger="lo")
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(bad, artifact).status == "FAIL"

    def test_order_on_sweep_row(self):
        artifact = _artifact(exp={"s": _sweep(cheap=[1.0, 2.0],
                                              costly=[3.0, 4.0])})
        ok = _claim("order", part="s", row="last",
                    smaller="cheap", larger="costly")
        assert evaluate_claim(ok, artifact).status == "PASS"

    def test_order_across_rows(self):
        artifact = _artifact(exp={"s": _sweep(m=[1.0, 3.0, 2.0])})
        ok = _claim("order", part="s", smaller="m", larger="m",
                    smaller_row="first", larger_row=2)
        bad = _claim("order", part="s", smaller="m", larger="m",
                     smaller_row=2, larger_row="last")
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(bad, artifact).status == "FAIL"

    def test_rel_close(self):
        artifact = _artifact(exp={"s": _sweep(a=[1.0, 2.0],
                                              b=[1.05, 2.1])})
        ok = _claim("rel_close", part="s", a="a", b="b",
                    rel_tol=0.10, abs_tol=0.0)
        tight = _claim("rel_close", part="s", a="a", b="b",
                       rel_tol=0.01, abs_tol=0.0)
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(tight, artifact).status == "FAIL"

    def test_nested_ratio(self):
        artifact = _artifact(exp={
            "n": {"fast": {"m": 10.0}, "slow": {"m": 1.0}},
        })
        ok = _claim("nested_ratio", part="n", metric="m",
                    numerator_config="fast",
                    denominator_config="slow", min_factor=5.0)
        bad = _claim("nested_ratio", part="n", metric="m",
                     numerator_config="slow",
                     denominator_config="fast", min_factor=5.0)
        assert evaluate_claim(ok, artifact).status == "PASS"
        assert evaluate_claim(bad, artifact).status == "FAIL"

    def test_nested_ratio_wildcards(self):
        artifact = _artifact(exp={
            "n": {"a": {"m": 10.0}, "b": {"m": 8.0}, "c": {"m": 2.0}},
        })

        def claim(numerator, denominator, factor):
            return _claim("nested_ratio", part="n", metric="m",
                          numerator_config=numerator,
                          denominator_config=denominator,
                          min_factor=factor)

        # every other config vs one: worst pair is b / c = 4
        assert evaluate_claim(claim("*", "c", 4.0),
                              artifact).status == "PASS"
        worst = evaluate_claim(claim("*", "c", 4.5), artifact)
        assert worst.status == "FAIL" and "b / c" in worst.measured
        # one vs every other: worst pair is a / b = 1.25
        assert evaluate_claim(claim("a", "*", 1.25),
                              artifact).status == "PASS"
        assert evaluate_claim(claim("a", "*", 1.3),
                              artifact).status == "FAIL"
        # every ordered pair: worst is c / a = 0.2
        assert evaluate_claim(claim("*", "*", 0.2),
                              artifact).status == "PASS"
        assert evaluate_claim(claim("*", "*", 0.25),
                              artifact).status == "FAIL"
        missing = evaluate_claim(claim("*", "nope", 1.0), artifact)
        assert missing.status == "FAIL" and "nope" in missing.detail

    def test_unknown_kind_fails(self):
        claim = _claim("vibes", part="t")
        artifact = _artifact(exp={"t": {"m": 1.0}})
        assert evaluate_claim(claim, artifact).status == "FAIL"


class TestReport:
    def test_render_counts(self):
        artifact = _artifact(exp={"t": {"m": 0.5}})
        claims = (
            _claim("band", part="t", metric="m", lo=0, hi=1),
            _claim("band", experiment="absent", part="t",
                   metric="m", lo=0, hi=1),
        )
        results = evaluate_all(artifact, claims=claims)
        text = render_claim_report(results)
        assert "1 passed, 0 failed, 1 skipped" in text
        assert "PASS" in text and "SKIP" in text

    def test_full_registry_against_empty_artifact_all_skip(self):
        results = evaluate_all(_artifact())
        assert all(result.status == "SKIP" for result in results)
        assert len(results) == len(CLAIMS)
