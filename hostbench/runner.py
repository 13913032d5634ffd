"""Run one workload in this interpreter and turn it into metrics.

Run shape: imports -> one untimed reduced-size warm-up -> timed
repeats, each = *setup* (build, generate, connect) then *run* then
*collect*.  A traced run adds one more repeat with the layer sampler
on; end-to-end metrics always come from the untraced repeats.

Host times are reported twice: raw ``perf_counter`` seconds under
``raw``, and normalised to the reference box's speed (raw x the
repeat's machine speed, see ``measure.SpanLog``) everywhere else.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from . import SCHEMA
from .measure import LayerSampler, SpanLog, digest, percentile, spread
from .spec import (CHECK_METRIC, DEFAULT_SEED, END_TO_END, LAYERS,
                   PER_LAYER, UNITS)
from .workloads import load

__all__ = ["run_workload", "run_suite", "provenance", "PACKAGE_DIR"]

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(PACKAGE_DIR, "baseline.json")
#: traces and the suite's per-workload result files (ignored by git)
OUT_DIR = os.path.join(PACKAGE_DIR, "out")

DEFAULT_REPEATS = 3
SETUP_PHASES = ("build", "generate", "connect")


def provenance() -> dict:
    """Where and on what a result was measured."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git",) + args, cwd=PACKAGE_DIR, capture_output=True,
                text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1min_at_start": os.getloadavg()[0],
    }


class _Repeat:
    """One executed repeat: its spans, outcome, digest and timings.

    ``raw_s`` holds each phase's ``perf_counter`` seconds; ``speed``
    is the machine speed over the reference spins taken around the
    set-up phases, inside run and collect (where the scenario calls
    ``spans.pace()``) and after collect.
    """

    def __init__(self, scenario_cls, sizes: dict, seed: int,
                 sampler: Optional[LayerSampler] = None):
        gc.collect()
        self.spans = spans = SpanLog()
        scenario = scenario_cls(sizes, seed, spans)
        with spans.span(scenario_cls.name):
            spans.reference()
            for phase in SETUP_PHASES:
                with spans.span(phase):
                    getattr(scenario, phase)()
                spans.reference()
            cpu_before = time.process_time() - spans.reference_cpu_s
            with sampler.sampling() if sampler else nullcontext():
                with spans.span("run"):
                    scenario.run()
                with spans.span("collect"):
                    self.outcome = scenario.collect()
                    self.digest = digest(self.outcome.simulated)
            self.cpu_raw_s = (time.process_time() - spans.reference_cpu_s
                              - cpu_before)
            spans.reference()
            spans.reference()
        self.speed = spans.speed
        self.spins = len(spans.reference_s)
        self.raw_s = {phase: spans.duration(phase)
                      for phase in SETUP_PHASES + ("run", "collect")}
        self.setup_raw_s = sum(self.raw_s[p] for p in SETUP_PHASES)
        self.wall_raw_s = self.raw_s["run"] + self.raw_s["collect"]
        self.setup_s = self.setup_raw_s * self.speed
        self.wall_s = self.wall_raw_s * self.speed


def _pinned_digest(name: str, reduced: bool) -> Optional[str]:
    """The digest ``baseline.json`` pins for ``name`` at the default
    seed and that size; None when there is no such pin to read."""
    try:
        with open(BASELINE_PATH) as handle:
            pins = json.load(handle)["digests"]
        return pins["reduced" if reduced else "full"].get(name)
    except (OSError, ValueError, KeyError):
        return None


def _censored_percentile(latencies_us: List[Optional[float]], q: float,
                         censor_us: float) -> float:
    """Percentile where a missing answer counts as the run horizon."""
    return percentile([censor_us if v is None else v
                       for v in latencies_us], q)


def _timed_repeats(scenario_cls, sizes: dict, seed: int,
                   pinned: Optional[str], twin, repeats: Optional[int],
                   seconds: Optional[float]):
    """Run the timed repeats; returns (repeats done, named checks).

    ``pinned`` is checked at the default seed only; a pin that cannot
    be found there is a failed check, not a skipped one.
    """
    checks: List[tuple] = []
    done: List[_Repeat] = []
    measuring_since = time.perf_counter()
    while True:
        repeat_started = time.perf_counter()
        repeat = _Repeat(scenario_cls, sizes, seed)
        found = list(repeat.outcome.checks)
        if seed == DEFAULT_SEED:
            found.append(("digest_pinned", repeat.digest == pinned))
        if done:
            found.append(("digest_repeats",
                          repeat.digest == done[-1].digest))
            # only the last repeat's outcome and spans are reported
            done[-1].outcome = done[-1].spans = None
        if twin is not None:
            found += scenario_cls.twin_checks(repeat.outcome,
                                              twin.outcome)
        checks += [(f"r{len(done)}.{check}", ok) for check, ok in found]
        done.append(repeat)
        if repeats is not None:
            if len(done) >= repeats:
                return done, checks
        elif len(done) >= 2:
            # stop when another repeat would end further past the
            # budget than stopping now ends short of it
            now = time.perf_counter()
            if (now - measuring_since
                    + 0.5 * (now - repeat_started) >= seconds):
                return done, checks


def run_workload(name: str, *, seed: int = DEFAULT_SEED,
                 repeats: Optional[int] = None,
                 seconds: Optional[float] = None,
                 traced: bool = False, reduced: bool = False) -> dict:
    """Measure workload ``name``; returns its result record.

    ``repeats`` fixes the number of timed repeats; otherwise repeats
    continue until about ``seconds`` of measuring (setup + run +
    collect) have passed, at least two.  With neither, three repeats.
    """
    started = provenance()
    import_started = time.perf_counter()
    scenario_cls = load(name)
    import repro
    import_raw_s = time.perf_counter() - import_started
    after_import = SpanLog()
    for _ in range(5):
        after_import.reference()
    import_s = import_raw_s * after_import.speed

    if repeats is None and seconds is None:
        repeats = DEFAULT_REPEATS
    sizes = scenario_cls.REDUCED if reduced else scenario_cls.FULL
    _Repeat(scenario_cls, scenario_cls.REDUCED, seed)          # warm-up
    twin = None
    if traced and scenario_cls.untraced_twin is not None:
        # cluster_traced: the identical inputs with tracing off, once,
        # for the traced-vs-untraced check and obs.overhead_ratio
        twin = _Repeat(scenario_cls.untraced_twin, sizes, seed)
    done, checks = _timed_repeats(
        scenario_cls, sizes, seed, _pinned_digest(name, reduced), twin,
        repeats, seconds)

    last = done[-1]
    outcome = last.outcome
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [r.wall_s for r in done]
    wall_s = percentile(walls, 0.5)
    failures = [check for check, ok in checks if not ok]
    tail_us = (outcome.latencies_us if outcome.tail_latencies_us is None
               else outcome.tail_latencies_us)

    end_to_end = {
        "setup_s": import_s + percentile([r.setup_s for r in done], 0.5),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_latency_p50_us": _censored_percentile(
            outcome.latencies_us, 0.50, outcome.censor_us),
        "sim_latency_p99_us": _censored_percentile(
            tail_us, 0.99, outcome.censor_us),
        "sim_goodput_ops": outcome.good / outcome.window_s,
        "sim_host_cores": outcome.host_cores,
        CHECK_METRIC[0]: len(failures) / len(checks),
    }
    raw = {
        "setup_s": import_raw_s + percentile(
            [r.setup_raw_s for r in done], 0.5),
        "wall_s": percentile([r.wall_raw_s for r in done], 0.5),
        "speed": percentile([r.speed for r in done], 0.5),
        "import_s": import_raw_s,
        "import_speed": after_import.speed,
        "repeats": [{"setup_s": r.setup_raw_s, "wall_s": r.wall_raw_s,
                     "speed": r.speed, "spins": r.spins}
                    for r in done],
    }

    per_layer: Dict[str, Optional[float]] = {
        metric: 0.0 for metric, *_ in PER_LAYER}
    per_layer.update(outcome.counts)
    for phase in SETUP_PHASES + ("run", "collect"):
        per_layer[f"phase.{phase}_s"] = percentile(
            [r.raw_s[phase] * r.speed for r in done], 0.5)
    entries = per_layer["sim.core.entries"]
    per_layer.update({
        "harness.import_s": import_s,
        "harness.cpu_s": percentile(
            [r.cpu_raw_s * r.speed for r in done], 0.5),
        "harness.host_us_per_sim_op": wall_s * 1e6 / outcome.sim_ops,
        "harness.repeat_spread": spread(walls),
        "harness.machine_speed": raw["speed"],
        "sim.core.host_us_per_entry":
            None if entries is None
            else wall_s * 1e6 / entries if entries else 0.0,
    })
    if scenario_cls.op_metric is not None:
        op_ms = [ms * last.speed
                 for ms in last.spans.durations_ms("op:")]
        per_layer[f"{scenario_cls.op_metric}_p50"] = percentile(op_ms, 0.5)
        per_layer[f"{scenario_cls.op_metric}_p90"] = percentile(op_ms, 0.9)
    if twin is not None:
        per_layer["obs.overhead_ratio"] = wall_s / twin.wall_s

    record = {
        "repeats": len(done),
        "latency_samples": len(outcome.latencies_us),
        "tail_samples": len(tail_us),
        "digest": last.digest,
        "wall_s_repeats": walls,
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": per_layer,
        "checks": {"attempted": len(checks), "failed": len(failures),
                   "failures": failures},
    }

    if traced:
        sampler = LayerSampler(os.path.dirname(repro.__file__))
        sampled = _Repeat(scenario_cls, sizes, seed, sampler)
        self_s = sampler.self_times(sampled.wall_s)
        for layer in LAYERS:
            per_layer[f"{layer}.self_s"] = self_s[layer]
        per_layer["trace.overhead_ratio"] = sampled.wall_s / wall_s
        per_layer["trace.samples"] = float(sampler.samples)
        os.makedirs(OUT_DIR, exist_ok=True)
        record["trace_file"] = os.path.join(OUT_DIR, f"trace_{name}.json")
        with open(record["trace_file"], "w") as handle:
            json.dump({
                "workload": name, "seed": seed,
                "run_collect_s": sampled.wall_s,
                "run_collect_raw_s": sampled.wall_raw_s,
                "machine_speed": sampled.speed,
                "samples": sampler.samples,
                "self_s": self_s,
                "spans": sampled.spans.spans,
            }, handle)

    return {
        "schema": SCHEMA, "seed": seed, "traced": traced,
        "reduced": reduced, "provenance": started,
        "workloads": {name: record},
    }


def run_suite(names, *, seed, repeats=None, seconds=None, traced=False,
              reduced=False) -> dict:
    """Run ``names`` one after another, each in a fresh interpreter."""
    os.makedirs(OUT_DIR, exist_ok=True)
    merged = None
    for name in names:
        path = os.path.join(OUT_DIR, f"result_{name}.json")
        command = [sys.executable, "-m", "hostbench",
                   "--workload", name, "--seed", str(seed),
                   "--trace", "1" if traced else "0", "--json-out", path]
        if repeats is not None:
            command += ["--repeats", str(repeats)]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        if reduced:
            command.append("--reduced")
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            sys.exit(f"hostbench: workload {name} exited "
                     f"{done.returncode}")
        with open(path) as handle:
            result = json.load(handle)
        if merged is None:
            merged = result
        else:
            merged["workloads"].update(result["workloads"])
    return merged


def render(result: dict) -> str:
    """Every metric by name with its unit, one workload after another."""
    lines = []
    for name, record in result["workloads"].items():
        lines.append(f"== {name}  seed={result['seed']} "
                     f"repeats={record['repeats']} "
                     f"latency_samples={record['latency_samples']} "
                     f"tail_samples={record['tail_samples']} "
                     f"digest={record['digest'][:16]}")
        for group in ("end_to_end", "per_layer"):
            if group == "per_layer" and not result["traced"]:
                lines.append("  (self-times and obs.overhead_ratio need "
                             "--traced; shown as 0)")
            for metric, value in record[group].items():
                shown = "null" if value is None else f"{value:.6g}"
                lines.append(f"  {metric:34s} {shown:>14s} "
                             f"{UNITS[metric]}")
        raw = record["raw"]
        lines.append(f"  raw perf_counter seconds: setup_s "
                     f"{raw['setup_s']:.6g}, wall_s {raw['wall_s']:.6g}, "
                     f"at machine speed {raw['speed']:.4g}")
        if "trace_file" in record:
            lines.append(f"  trace: {record['trace_file']}")
        checks = record["checks"]
        lines.append(f"  checks: {checks['attempted']} attempted, "
                     f"{checks['failed']} failed"
                     + (f": {', '.join(checks['failures'])}"
                        if checks["failures"] else ""))
    return "\n".join(lines)


def driver_line(result: dict) -> str:
    """The one-object last line the benchmark driver reads.

    ``--trace 0`` -> the bounded end-to-end metrics, ``--trace 1`` ->
    the per-layer metrics; an unavailable count prints as -1.
    """
    (record,) = result["workloads"].values()
    if result["traced"]:
        names = [name for name, *_ in PER_LAYER]
        values = record["per_layer"]
    else:
        names = [name for name, *_ in END_TO_END]
        values = record["end_to_end"]
    metrics = {
        name: {"value": -1.0 if values[name] is None else values[name],
               "unit": UNITS[name]}
        for name in names}
    checks = record["checks"]
    return json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    })

