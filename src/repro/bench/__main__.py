"""Command-line experiment runner: ``python -m repro.bench``.

Regenerates the paper's figures, the ablations and the system
experiments — every *simulated* number the reproduction claims::

    python -m repro.bench              # everything
    python -m repro.bench fig1 fig2    # a subset
    python -m repro.bench --list       # available experiments

The benchmark observatory rides on the same runner:

* ``--json-out BENCH_<runid>.json`` serializes every selected
  experiment's structured result into a schema-versioned artifact
  with provenance (source hash, python version, per-experiment wall
  clock, hardware profiles, workload seed);
* ``--check ARTIFACT.json`` evaluates the declarative claims registry
  (F1–F3, F6–F8, S9, A1–A6 and the system experiments — see
  ``repro.obs.claims``) against an artifact and exits nonzero on any
  FAIL;
* ``--identity BASELINE.json [CANDIDATE.json]`` is the one way two
  artifacts are compared, and it is exact: every simulated metric and
  every input that defines one must match, a metric or experiment on
  one side only is a mismatch, and a mismatch is reported by metric
  path.  With two paths the whole artifacts are compared and no
  experiment runs; with one, the selected experiments run and exactly
  what ran is compared against the baseline (``fig8 query --identity
  BENCH_baseline.json``: "compared 2 of 19 baseline experiments").
  Wall clocks, argv, source hash, interpreter and platform are printed
  beside the verdict and never compared;
* ``--trace-out PATH`` runs the traceable experiments (fig6, fig8,
  scale, avail, obs, attr) with sim-time tracing on and exports
  Chrome ``trace_event`` JSON openable in Perfetto
  (https://ui.perfetto.dev), plus a flame summary per experiment.
  Cluster experiments trace through a ClusterTelemetry plane, so the
  merged file renders one Chrome process per node;
* ``--attr-out PATH`` does the same tracing run but exports
  per-experiment latency *attribution* reports — each DDS request's
  end-to-end latency decomposed into a conserved per-resource ledger
  (see ``repro.obs.attr``) — plus a top-bottleneck summary;
* ``--jobs N`` fans the selected experiments out over a process
  pool.  Experiments are independent simulations with fixed seeds
  and both settings run the same ``_run_job``, so the artifact is
  identical to a sequential run (``--identity SEQ.json PAR.json`` is
  the CI gate for it).

Where the *host's* time goes is not this runner's business:
``python -m hostbench`` measures it (``--traced`` for the per-layer
ledger).

Exit codes: 0 success; 1 failed claim or identity mismatch; 2 usage
or artifact error; 3 ``--trace-out`` with no traceable experiment
selected.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

from . import (
    a1_parts,
    a2_parts,
    a3_parts,
    a4_parts,
    a5_parts,
    a6_parts,
    attr_parts,
    availability_parts,
    banner,
    fig1_parts,
    fig2_parts,
    fig3_parts,
    fig6_parts,
    fig7_parts,
    fig8_parts,
    format_sweep,
    format_table,
    obs_parts,
    query_parts,
    s9_parts,
    scale_parts,
    slo_parts,
)
from .harness import Sweep
from ..obs import ClusterTelemetry, Telemetry
from ..obs.artifact import (
    decode_part,
    encode_part,
    load_artifact,
    make_artifact,
    strip_volatile,
    write_artifact,
)
from ..obs.attr import build_report
from ..obs.claims import FAIL, evaluate_all, render_claim_report
from ..obs.regress import differences, render_differences
from ..sim.stats import fold_sum

#: experiments whose runner accepts a Telemetry (for --trace-out)
TRACEABLE = ("fig6", "fig8", "scale", "avail", "obs", "attr")

#: traceable experiments that run a Cluster and therefore take a
#: ClusterTelemetry plane (one Chrome process per node in the trace)
_CLUSTER_TRACED = ("scale", "obs", "attr")


def _make_telemetry(key: str):
    """The tracing bundle a traceable experiment's runner accepts."""
    if key in _CLUSTER_TRACED:
        return ClusterTelemetry(tracing=True, name=key)
    return Telemetry(tracing=True, name=key)

EXPERIMENTS = {
    "fig1": ("Figure 1: compression on different hardware",
             fig1_parts),
    "fig2": ("Figure 2: CPU consumption of storage access",
             fig2_parts),
    "fig3": ("Figure 3: CPU consumption of TCP", fig3_parts),
    "fig6": ("Figure 6: read-compress-send sproc", fig6_parts),
    "fig7": ("Figure 7: DPU-optimized RDMA", fig7_parts),
    "fig8": ("Figure 8: DDS remote-read latency", fig8_parts),
    "s9": ("Section 9: DDS cores saved", s9_parts),
    "a1": ("A1: sproc scheduling policies", a1_parts),
    "a2": ("A2: DPU portability", a2_parts),
    "a3": ("A3: cache placement", a3_parts),
    "a4": ("A4: fast persistence", a4_parts),
    "a5": ("A5: partial offloading", a5_parts),
    "a6": ("A6: kernel fusion on PCIe peers", a6_parts),
    "avail": ("Availability: goodput/p99 under faults, "
              "recovery on/off", availability_parts),
    "scale": ("SC: cluster goodput/host-cores/TCO vs node count, "
              "sharding, rebalance under DPU failure", scale_parts),
    "obs": ("OB: distributed tracing, telemetry plane, SLO flight "
            "recorder", obs_parts),
    "attr": ("AT: latency attribution, conservation invariant, "
             "offload advisor", attr_parts),
    "slo": ("SL: overload-safe self-healing — admission control, "
            "autoscale, hot-shard split vs the chaos matrix",
            slo_parts),
    "query": ("Q: distributed scans — pushdown vs pull, planner "
              "vs measured argmin, identity, stale routing",
              query_parts),
}


# -- execution ----------------------------------------------------------------


def _run_job(key: str, telemetry=None):
    """Run one experiment, in this process or a pool worker.

    Returns everything the caller needs, in picklable form: the
    parts are pre-encoded to the JSON-safe artifact schema (a Sweep
    full of generator-bearing internals never crosses the process
    boundary) and the table text is rendered here so the caller only
    prints.  Each experiment builds its own Environment with its own
    fixed seeds, so process placement cannot perturb results.  A
    ``telemetry`` bundle (sequential runs only) is handed to the
    experiment and filled in place.
    """
    title, fn = EXPERIMENTS[key]
    started = time.time()
    parts = fn(telemetry) if key in TRACEABLE else fn()
    wall = time.time() - started
    rendered = _render_parts(parts)
    encoded = {name: encode_part(result)
               for name, result in parts.items()}
    return key, title, wall, rendered, encoded


def _outcomes(selected, jobs: int, telemetry: dict):
    """``_run_job`` over ``selected``, in order, here or on a pool.

    ``imap`` preserves submission order, so output and artifact
    contents are ordered exactly like a sequential run regardless of
    which worker finishes first.
    """
    if jobs > 1:
        workers = min(jobs, len(selected))
        with multiprocessing.Pool(processes=workers) as pool:
            yield from pool.imap(_run_job, selected)
    else:
        for key in selected:
            yield _run_job(key, telemetry.get(key))


def _run_all(selected, jobs: int, telemetry: dict) -> dict:
    """Run, print and collect every selected experiment."""
    results = {}
    for key, title, wall, rendered, encoded in \
            _outcomes(selected, jobs, telemetry):
        print(banner(title))
        print(rendered)
        print(f"[{key} done in {wall:.1f}s]")
        results[key] = {
            "title": title,
            "wall_clock_s": wall,
            "parts": {name: decode_part(part)
                      for name, part in encoded.items()},
        }
    return results


# -- rendering --------------------------------------------------------------


def _dict_table(result: dict) -> str:
    if not result:
        return "(no results)"
    return format_table(["metric", "value"],
                        [[key, value] for key, value in result.items()])


def _nested_table(results: dict) -> str:
    """Config-per-row table over the union of metric keys.

    Handles an empty results dict and ragged configs (a metric some
    configs lack renders as NaN) instead of raising.
    """
    if not results:
        return "(no results)"
    keys: list = []
    for outcome in results.values():
        for key in outcome:
            if key not in keys:
                keys.append(key)
    rows = [[name] + [outcome.get(key, float("nan")) for key in keys]
            for name, outcome in results.items()]
    return format_table(["config"] + keys, rows)


def _render_parts(parts: dict) -> str:
    """Print-ready text for one experiment's structured result."""
    blocks = []
    for name, result in parts.items():
        if isinstance(result, Sweep):
            body = format_sweep(result)
        elif isinstance(result, dict) and result and \
                all(isinstance(value, dict)
                    for value in result.values()):
            body = _nested_table(result)
        else:
            body = _dict_table(result)
        blocks.append(f"{name}:\n{body}" if len(parts) > 1 else body)
    return "\n\n".join(blocks)


def _write_trace(path, traced):
    """Merge per-experiment traces into one Chrome trace JSON.

    Every telemetry bundle exports through the same protocol
    (``to_chrome_events``); a single-node experiment contributes one
    Chrome process, a cluster experiment one process per node (its
    ClusterTelemetry already merged the per-node tracers and resolved
    cross-node parent links).  Pids are offset per experiment and the
    ``process_name`` metadata is rewritten to
    ``<experiment>[/<node>]`` so Perfetto labels every track.
    """
    events = []
    pid_base = 0
    for key, telemetry in traced:
        width = 0
        for event in telemetry.to_chrome_events():
            event = dict(event)
            pid = event.get("pid", 1)
            width = max(width, pid)
            event["pid"] = pid_base + pid
            if event.get("ph") == "M" \
                    and event.get("name") == "process_name":
                sub = event.get("args", {}).get("name", "")
                label = key if sub in ("", key) else f"{key}/{sub}"
                event["args"] = {"name": label}
            events.append(event)
        pid_base += width
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated seconds",
                      "source": "python -m repro.bench"},
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, default=str)
    print(f"\n[trace: {len(events)} events -> {path}]")
    for key, telemetry in traced:
        print(f"\nflame summary ({key}):")
        print(telemetry.flame_summary())


def _tracer_pairs(key: str, telemetry):
    """(node, tracer) pairs from either telemetry flavor."""
    if hasattr(telemetry, "tracers"):     # ClusterTelemetry
        return telemetry.tracers()
    return [(key, telemetry.tracer)]


def _write_attr(path: str, traced) -> None:
    """Per-experiment attribution reports as one JSON document."""
    document = {
        "schema": "repro.obs/attr-report",
        "schema_version": 1,
        "experiments": {},
    }
    for key, telemetry in traced:
        report = build_report(_tracer_pairs(key, telemetry))
        document["experiments"][key] = report.to_dict()
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True,
                  default=str)
        handle.write("\n")
    print(f"\n[attribution: {len(document['experiments'])} "
          f"experiments -> {path}]")
    for key, entry in document["experiments"].items():
        top = entry["top_bottlenecks"][:3]
        ranked = ", ".join(
            f"{row['node']}/{row['category']}={row['seconds']:.3g}s"
            for row in top) or "none"
        print(f"  {key}: {entry['requests']} requests attributed, "
              f"top bottlenecks: {ranked}")


# -- observatory subcommands ------------------------------------------------


def _load_or_complain(path: str):
    try:
        return load_artifact(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load artifact {path!r}: {exc}",
              file=sys.stderr)
        return None


def _run_check(path: str) -> int:
    """--check: every paper claim against one artifact."""
    artifact = _load_or_complain(path)
    if artifact is None:
        return 2
    results = evaluate_all(artifact)
    print(banner(f"paper claims vs {path}"))
    print(render_claim_report(results))
    return 1 if any(r.status == FAIL for r in results) else 0


def _leaves(value, prefix=""):
    """``(dotted path, leaf)`` under every dict of a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{prefix}{key}.")
    else:
        yield prefix[:-1], value


def _information_table(baseline: dict, candidate: dict) -> str:
    """Exactly what ``strip_volatile`` set aside, side by side: the
    source hash, interpreter and platform of each run and its wall
    clocks.  Shown for the reader; never part of the verdict."""
    sides = []
    for document in (baseline, candidate):
        kept = dict(_leaves(strip_volatile(document)))
        sides.append({path: leaf for path, leaf in _leaves(document)
                      if path not in kept})
    return format_table(
        ["not compared", "baseline", "candidate"],
        [[path, sides[0].get(path, "-"), sides[1].get(path, "-")]
         for path in dict.fromkeys([*sides[0], *sides[1]])])


def _run_identity(baseline_path: str, baseline: dict,
                  candidate: dict, candidate_name: str) -> int:
    """--identity: the candidate must reproduce the baseline exactly
    (see :func:`repro.obs.regress.differences`); what is not compared
    is printed beside the verdict, and a source hash that moved gets
    its own line above it."""
    found = differences(baseline, candidate)
    print(banner(f"identity: {baseline_path} vs {candidate_name}"))
    old, new = (document.get("provenance", {}).get("src_sha256")
                for document in (baseline, candidate))
    if old != new:
        print(f"source differs: {baseline_path} was made from "
              f"src_sha256 {str(old)[:12]}, {candidate_name} from "
              f"{str(new)[:12]}")
    print(_information_table(baseline, candidate))
    if not found:
        print(f"identical: {candidate_name} reproduces "
              f"{baseline_path} exactly")
        return 0
    print(f"artifacts differ: {baseline_path} vs {candidate_name}",
          file=sys.stderr)
    print(render_differences(found, baseline, candidate),
          file=sys.stderr)
    return 1


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the DPDPU paper's figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="trace the traceable experiments "
                             f"({', '.join(TRACEABLE)}) and write "
                             "Chrome trace JSON to PATH")
    parser.add_argument("--attr-out", metavar="PATH", default=None,
                        help="trace the traceable experiments and "
                             "write per-experiment latency "
                             "attribution reports (JSON) to PATH")
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help="serialize the run into a "
                             "schema-versioned artifact at PATH")
    parser.add_argument("--check", metavar="ARTIFACT", default=None,
                        help="evaluate the paper-claims registry "
                             "against ARTIFACT and exit (no "
                             "experiments run)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        metavar="N",
                        help="run experiments over a pool of N "
                             "worker processes; 0 autodetects the "
                             "machine's CPU count (results are "
                             "identical to --jobs 1; see "
                             "--identity)")
    parser.add_argument("--identity", metavar="ARTIFACT", default=None,
                        nargs="+",
                        help="exact comparison, wall clocks and "
                             "host/source provenance excluded: with "
                             "two paths compare BASELINE CANDIDATE "
                             "and exit (no experiments run); with "
                             "one, run the selected experiments and "
                             "compare exactly what ran against it")
    args = parser.parse_args(argv)

    if args.list:
        for key, (title, _fn) in EXPERIMENTS.items():
            traced = " [traceable]" if key in TRACEABLE else ""
            print(f"{key:6s} {title}{traced}")
        return 0

    if args.identity and len(args.identity) > 2:
        print("--identity takes one or two artifact paths",
              file=sys.stderr)
        return 2
    runs_nothing = args.check or len(args.identity or ()) == 2
    if runs_nothing and (args.experiments or args.json_out
                         or args.trace_out or args.attr_out):
        print("--check and two-path --identity run no experiment: "
              "experiment ids and --json-out/--trace-out/--attr-out "
              "cannot be combined with them", file=sys.stderr)
        return 2

    if args.check:
        return _run_check(args.check)

    baseline = None
    if args.identity:
        # loaded before anything runs: a bad path costs no experiment
        baseline = _load_or_complain(args.identity[0])
        if baseline is None:
            return 2
        if len(args.identity) == 2:
            candidate = _load_or_complain(args.identity[1])
            if candidate is None:
                return 2
            return _run_identity(args.identity[0], baseline,
                                 candidate, args.identity[1])

    if args.jobs == 0:
        # Autodetect: one worker per CPU.  Identity is guaranteed
        # regardless of N, so the only cost of over-provisioning is
        # idle workers on a short experiment list.
        args.jobs = os.cpu_count() or 1
    if args.jobs < 1:
        print(f"--jobs must be >= 1 (or 0 to autodetect), "
              f"got {args.jobs}", file=sys.stderr)
        return 2
    if args.jobs > 1 and (args.trace_out or args.attr_out):
        # Tracers live in the experiment's process; their results
        # cannot cross the pool boundary.
        print("--jobs > 1 is incompatible with "
              "--trace-out/--attr-out "
              "(run those sequentially)", file=sys.stderr)
        return 2

    tracing_wanted = bool(args.trace_out or args.attr_out)
    if tracing_wanted and not args.experiments:
        selected = list(TRACEABLE)
    else:
        selected = args.experiments or list(EXPERIMENTS)
    unknown = [key for key in selected if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    telemetry = {key: _make_telemetry(key) for key in selected
                 if tracing_wanted and key in TRACEABLE}
    if tracing_wanted and not telemetry:
        print("no traceable experiment selected "
              f"(traceable: {', '.join(TRACEABLE)}); "
              "no trace or attribution written", file=sys.stderr)
        # Distinct exit code so CI catches a misconfigured
        # invocation instead of silently shipping no output.
        return 3

    # Fail fast on unwritable output paths instead of crashing after
    # the (possibly long) benchmark run.  Append mode keeps any
    # existing file intact; a file an earlier probe created is
    # removed when a later one fails.
    probes = {}
    for path in (args.trace_out, args.attr_out, args.json_out):
        if not path:
            continue
        created = not os.path.exists(path)
        try:
            with open(path, "a"):
                pass
        except OSError as exc:
            print(f"cannot write to {path!r}: {exc}",
                  file=sys.stderr)
            for earlier, was_created in probes.items():
                if was_created:
                    os.remove(earlier)
            return 2
        probes[path] = created

    suite_started = time.time()
    results = _run_all(selected, args.jobs, telemetry)
    suite_wall = time.time() - suite_started

    if args.trace_out:
        _write_trace(args.trace_out, telemetry.items())
    if args.attr_out:
        _write_attr(args.attr_out, telemetry.items())

    if not (args.json_out or baseline):
        return 0
    document = make_artifact(results, argv=argv,
                             total_wall_clock_s=suite_wall)
    if args.json_out:
        write_artifact(args.json_out, document)
        metric_count = fold_sum(len(entry["parts"])
                                for entry in document["experiments"]
                                .values())
        print(f"\n[artifact: {len(results)} experiments, "
              f"{metric_count} parts in {suite_wall:.1f}s "
              f"(jobs={args.jobs}) -> {args.json_out}]")
    if baseline is None:
        return 0
    # Compare exactly what ran: the baseline's other experiments are
    # not this run's business, one it lacks still is a mismatch.
    blessed = baseline["experiments"]
    held = {key: blessed[key] for key in results if key in blessed}
    print(f"\ncompared {len(held)} of {len(blessed)} baseline "
          "experiments")
    # through JSON, as the baseline went: tuples become lists and
    # integer config keys strings before the two are held together
    return _run_identity(args.identity[0],
                         dict(baseline, experiments=held),
                         json.loads(json.dumps(document)), "this run")


if __name__ == "__main__":
    sys.exit(main())
