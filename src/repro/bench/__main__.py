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
  Every traced unit's ``(node, tracer)`` pairs go through one merge:
  a cluster experiment traces through a ClusterTelemetry plane and
  renders one Chrome process per node, a single-node experiment is a
  merge of one, and either way span ids are renumbered from 1 per
  unit;
* ``--attr-out PATH`` does the same tracing run but exports
  per-experiment latency *attribution* reports — each DDS request's
  end-to-end latency decomposed into a conserved per-resource ledger
  (see ``repro.obs.attr``) — plus a top-bottleneck summary;
* ``--jobs N`` fans the selected experiments' units of work out over
  a process pool.  A unit is one cluster simulation (a row of
  ``harness.ROWS``) of ``scale`` or ``slo``, or one whole experiment
  without rows.  Units are independent simulations with fixed seeds,
  both settings run the same ``_run_unit``, and an experiment's parts
  are assembled from its units' results in row order, so the artifact
  is identical to a sequential run (``--identity SEQ.json PAR.json``
  is the CI gate for it).  It composes with ``--trace-out`` and
  ``--attr-out``: a traced unit builds its own telemetry and hands
  back its Chrome events, flame summary and attribution report, which
  are written in unit order, so the files are the same at any N.

Where the *host's* time goes is not this runner's business:
``python -m hostbench`` measures it (``--traced`` for the per-layer
ledger).

Exit codes: 0 success; 1 failed claim or identity mismatch; 2 usage
or artifact error; 3 ``--trace-out`` with no traceable experiment
selected.
"""

from __future__ import annotations

import argparse
import functools
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
    format_table,
    obs_parts,
    query_parts,
    s9_parts,
    scale_parts,
    slo_parts,
)
from .experiments_scale import scale_unit
from .experiments_slo import slo_unit
from .harness import ROWS
from ..obs import ClusterTelemetry, Telemetry
from ..obs.artifact import (
    encode_part,
    load_artifact,
    make_artifact,
    strip_volatile,
    write_artifact,
)
from ..obs.attr import build_report
from ..obs.claims import FAIL, evaluate_all, render_claim_report
from ..obs.regress import differences, render_differences
from ..obs.trace import _write_chrome, merge_chrome_events
from ..sim.stats import fold_sum

#: the experiments ``--trace-out`` / ``--attr-out`` trace, each with
#: the telemetry bundle its runner accepts: an experiment that runs a
#: Cluster takes a ClusterTelemetry plane (one Chrome process per node
#: in the trace)
TRACEABLE = {"fig6": Telemetry, "fig8": Telemetry,
             "scale": ClusterTelemetry, "avail": Telemetry,
             "obs": ClusterTelemetry, "attr": ClusterTelemetry}

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


#: experiments whose units of work are their rows of ``harness.ROWS``:
#: key -> the runner of one row; ``EXPERIMENTS`` holds their assembly
ROW_UNITS = {"scale": scale_unit, "slo": slo_unit}


# -- execution ----------------------------------------------------------------


def _units(key: str):
    """An experiment's units of work: ``(key, row name, row)`` per row,
    or the one unit ``(key, None, None)`` of an experiment without
    rows."""
    if key in ROW_UNITS:
        return [(key, name, row) for name, row in ROWS[key].items()]
    return [(key, None, None)]


def _encoded(parts: dict) -> dict:
    """An experiment's parts in the JSON-safe artifact schema."""
    return {part: encode_part(value) for part, value in parts.items()}


def _run_unit(unit, traced: bool):
    """Run one unit of work, in this process or a pool worker.

    Returns ``(key, row name, wall clock, result, exports)``, all
    picklable: a row's result is the numbers its part reads (no live
    client, autoscaler or plane crosses the pool), an experiment
    without rows returns its parts encoded to the artifact schema.
    Each unit builds its own Environment with its own fixed seeds, so
    process placement cannot perturb results.  A ``traced`` unit of a
    traceable experiment builds its own telemetry bundle and hands
    back what ``--trace-out`` / ``--attr-out`` write as ``exports``
    (see :func:`_exports`); every other unit's are None.
    """
    key, name, row = unit
    started = time.time()
    telemetry = (TRACEABLE[key](tracing=True, name=key)
                 if traced and key in TRACEABLE else None)
    if row is not None:
        result = ROW_UNITS[key](name, row, telemetry)
    else:
        _title, fn = EXPERIMENTS[key]
        result = _encoded(fn(telemetry) if key in TRACEABLE else fn())
    wall = time.time() - started
    return (key, name, wall, result,
            None if telemetry is None else _exports(telemetry))


def _exports(telemetry):
    """A traced unit's Chrome events, flame summary and attribution
    report, JSON-safe; None for a plane that observed no cluster
    (``scale``'s rows other than ``rebalance``).

    The bundle's ``(node, tracer)`` pairs are merged (one Chrome
    process per node, cross-node parent links resolved); a single-node
    bundle is a merge of one.
    """
    pairs = telemetry.tracers()
    if not pairs:
        return None
    flame = "\n\n".join(f"[{node}]\n" + tracer.flame_summary()
                         for node, tracer in pairs)
    return {"events": merge_chrome_events(pairs), "flame": flame,
            "attr": build_report(pairs).to_dict()}


def _outcomes(units, jobs: int, traced: bool):
    """``_run_unit`` over ``units``, in order, here or on a pool.

    ``imap`` preserves submission order, so output, artifact and trace
    contents are ordered exactly like a sequential run regardless of
    which worker finishes first.
    """
    run = functools.partial(_run_unit, traced=traced)
    if jobs > 1:
        workers = min(jobs, len(units))
        with multiprocessing.Pool(processes=workers) as pool:
            yield from pool.imap(run, units)
    else:
        yield from map(run, units)


def _run_all(selected, jobs: int, traced: bool):
    """Run, assemble, print and collect every selected experiment.

    An experiment is assembled once its last unit is in, and its wall
    clock is the sum of its units'.  Returns the experiments' artifact
    entries and the ``(key, exports)`` of every unit that traced, in
    unit order.
    """
    results = {}
    exported = []
    done: dict = {}
    units = [unit for key in selected for unit in _units(key)]
    for key, name, wall, result, exports in _outcomes(units, jobs,
                                                      traced):
        if exports is not None:
            exported.append((key, exports))
        walls, rows = done.setdefault(key, ([], {}))
        walls.append(wall)
        rows[name] = result
        if len(rows) < len(_units(key)):
            continue
        del done[key]
        title, fn = EXPERIMENTS[key]
        parts = _encoded(fn(rows)) if key in ROW_UNITS else result
        wall = fold_sum(walls)
        print(banner(title))
        print(_render_parts(parts))
        print(f"[{key} done in {wall:.1f}s]")
        results[key] = {"title": title, "wall_clock_s": wall,
                        "parts": parts}
    return results, exported


# -- rendering --------------------------------------------------------------


def _render_part(part: dict) -> str:
    """One encoded part as a table: a sweep or nested part gets one
    column per series over the union of every row's (a series a row
    lacks renders as NaN), a table part one row per metric."""
    if part["type"] == "table":
        if not part["values"]:
            return "(no results)"
        return format_table(["metric", "value"],
                            list(part["values"].items()))
    if part["type"] == "sweep":
        if not part["rows"]:
            return "(empty sweep)"
        label = part["x_label"]
        rows = [(row["x"], row["values"]) for row in part["rows"]]
    else:
        label, rows = "config", list(part["rows"].items())
    keys = list(dict.fromkeys(key for _first, values in rows
                              for key in values))
    return format_table(
        [label] + keys,
        [[first] + [values.get(key, float("nan")) for key in keys]
         for first, values in rows])


def _render_parts(parts: dict) -> str:
    """Print-ready text for one experiment's encoded parts."""
    blocks = [_render_part(part) for part in parts.values()]
    if len(parts) > 1:
        blocks = [f"{name}:\n{body}"
                  for name, body in zip(parts, blocks)]
    return "\n\n".join(blocks)


def _write_trace(path, exported):
    """Merge the traced units' events into one Chrome trace JSON.

    A single-node experiment contributes one Chrome process, a cluster
    experiment one process per node.  Pids are offset per unit and
    the ``process_name`` metadata is rewritten to
    ``<experiment>[/<node>]`` so Perfetto labels every track.
    """
    events = []
    pid_base = 0
    for key, exports in exported:
        width = 0
        for event in exports["events"]:
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
    count = _write_chrome(path, events, "python -m repro.bench")
    print(f"\n[trace: {count} events -> {path}]")
    for key, exports in exported:
        print(f"\nflame summary ({key}):")
        print(exports["flame"])


def _write_attr(path: str, exported) -> None:
    """Per-experiment attribution reports as one JSON document."""
    document = {
        "schema": "repro.obs/attr-report",
        "schema_version": 1,
        "experiments": {key: exports["attr"]
                        for key, exports in exported},
    }
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

    if tracing_wanted and not any(key in TRACEABLE
                                  for key in selected):
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
    results, exported = _run_all(selected, args.jobs, tracing_wanted)
    suite_wall = time.time() - suite_started

    if args.trace_out:
        _write_trace(args.trace_out, exported)
    if args.attr_out:
        _write_attr(args.attr_out, exported)

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
