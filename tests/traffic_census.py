"""Execution census: which ``src/repro`` functions no traffic enters.

``python tests/traffic_census.py [--check]`` runs, in this process and
under ``sys.setprofile``, everything the product is judged by — the 19
``repro.bench`` experiments, the traced ``fig6 fig8 obs attr avail``
run, the five hostbench workloads at full and ``--reduced`` size, the
nine examples and the three CLIs (``--jobs 2``, ``--list``,
``--check``, both ``--identity`` forms, ``python -m repro.algos``,
``python -m repro.obs.plane`` with both output flags) — and prints
every function under ``src/repro`` whose code object was never
entered.  Tests are not traffic.

Exempt by rule: dunder methods, abstract stubs (a body that only
raises ``NotImplementedError``) and ``repro.algos`` (known-answer
surfaces whose callers are the golden tests); a function nested in a
never-entered one is counted with it.  Every other survivor is in
``KEPT`` with its reason; ``--check`` exits 1 on a never-entered
function missing from ``KEPT`` and on a ``KEPT`` entry that did get
traffic, so the table cannot rot.  About six minutes (``setprofile``
costs x3-4); stdlib only.
"""

import ast
import contextlib
import os
import runpy
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

_RECOVERY = "crash recovery: no experiment ends a crash (ROADMAP 4)"
_DEADLINE = "client deadlines/teardown: no client times out (ROADMAP 4)"
_MISMATCH = "runs only when --identity finds a difference (ROADMAP 7b)"
_PAPER = "paper-named interface, tests are its callers (PAPER.md s1)"

#: never entered by any traffic, kept for a stated reason
KEPT = {
    # -- safety without traffic ----------------------------------------
    "sim/core.py:Process.interrupt": _RECOVERY,
    "core/storage.py:StorageEngine.recover": _RECOVERY,
    "fs/journal.py:Journal.replay": _RECOVERY,
    "fs/journal.py:Journal.used_bytes":
        "what the journal crash tests watch drain; " + _RECOVERY,
    "core/traffic.py:TrafficDirector._fail_back": _RECOVERY,
    "core/requests.py:AsyncRequest.set_deadline": _DEADLINE,
    "netstack/tcp.py:TcpConnection.close": _DEADLINE,
    "netstack/tcp.py:TcpConnection.drain": _DEADLINE,
    "core/network.py:HostSocket.close": _DEADLINE,
    "netstack/tcp.py:TcpConnection._fast_retransmit":
        "loss recovery: no experiment drops a data segment (ROADMAP 4a)",
    "fs/pagecache.py:PageCache.invalidate":
        "cache coherence after an overwrite: A3 only reads (ROADMAP 5)",
    "core/scheduler.py:SprocScheduler._spill":
        "host spill-over under DPU backlog: off in every experiment "
        "(ROADMAP 5b knockout)",
    "cluster/autoscale.py:Autoscaler._scale_down":
        "retiring idle capacity: every slo cell ends loaded (ROADMAP 4b)",
    "core/tenancy.py:Tenant.asic_in_use":
        "strict-tenant ASIC envelope at admission: no experiment sends "
        "an asic-tagged request (ROADMAP 5b)",
    "sim/resources.py:Resource.count": "read by Tenant.asic_in_use",
    "sim/core.py:Timeout.fail": "refuses a hand-triggered timer",
    "sim/core.py:Timeout.succeed": "refuses a hand-triggered timer",
    "sim/core.py:Environment.peek":
        "how the schedule-order reference interpreter and the "
        "eventless-occupancy tests see the next event (ROADMAP 6)",
    "hardware/memory.py:MemoryRegion.used_bytes":
        "DPU DRAM occupancy: becomes a bound resource (ROADMAP 5)",
    "obs/attr/criticalpath.py:RequestAttribution.to_dict":
        "--attr-out per-request detail: hashed by the tracer goldens "
        "in tests/obs/test_trace_cost.py (ROADMAP 3)",
    "obs/attr/online.py:AttributionCollector._observe_kernel":
        "the advisor's kernel census on a scraped plane: cluster "
        "experiments run no DP kernel (ROADMAP 5 width)",
    "obs/regress.py:attribution_shifts": _MISMATCH,
    "obs/regress.py:render_differences": _MISMATCH,
    "obs/regress.py:_breakdown": _MISMATCH,
    "obs/regress.py:Difference.describe": _MISMATCH,
    "obs/regress.py:AttributionShift.describe": _MISMATCH,
    "obs/regress.py:AttributionShift.share_delta": _MISMATCH,
    # -- paper-named ---------------------------------------------------
    "core/pipeline.py:Pipeline.add_stage": _PAPER,
    "core/pipeline.py:Pipeline.run": _PAPER,
    "core/dpdpu.py:DpdpuRuntime.pipeline": _PAPER,
    "core/dpdpu.py:DpdpuRuntime.wait": _PAPER,
    "core/network.py:NetworkEngine.flow": _PAPER,
    "core/network.py:DfiFlow.push": _PAPER,
    "core/network.py:DfiFlow.consume": _PAPER,
    "core/network.py:OffloadedQp.send": "DfiFlow.push sends through it",
    "netstack/rdma.py:RdmaQp.post_send": "two-sided verbs under DfiFlow",
    "netstack/rdma.py:RdmaQp.post_recv": "two-sided verbs under DfiFlow",
    "netstack/rdma.py:RdmaNode._handle_send": "two-sided verbs under DfiFlow",
    "netstack/rdma.py:RdmaNode._charge_poll": "two-sided verbs under DfiFlow",
    # -- one half of a pair whose other half has traffic --------------
    "core/kernels.py:_decrypt_fn":
        "inverse of the encrypt kernel; the round-trip test is its caller",
    "buffers.py:RealBuffer.fingerprint":
        "the Buffer interface on real bytes (crc32 kernels read .data)",
    "hardware/peer.py:PeerAccelerator.service_time":
        "scheduler-scored peer placement: A6 names its device",
}


def defined_functions():
    """``{(path, first line): (key, line count, exempt by rule)}`` for
    every function and method under ``src/repro``.  The key is
    ``pkg/file.py:Qual.name``; the first line is the code object's
    (its first decorator)."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    decorator.lineno
                    for decorator in child.decorator_list])
                where = path.relative_to(SRC / "repro")
                last = child.body[-1]
                found[str(path), first] = (
                    f"{where}:{prefix}{child.name}",
                    child.end_lineno - first + 1,
                    child.name.startswith("__")
                    or where.parts[0] == "algos"
                    or isinstance(last, ast.Raise)
                    and "NotImplementedError" in ast.unparse(last))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def run_traffic(scratch):
    """Everything the product is judged by, in this process."""
    sys.path[:0] = [str(SRC), str(REPO)]
    from hostbench.__main__ import main as hostbench
    from hostbench.spec import WORKLOADS
    from repro.algos.__main__ import main as algos
    from repro.bench.__main__ import main as bench
    from repro.obs.plane.__main__ import main as plane

    artifact = f"{scratch}/bench.json"
    blessed = str(REPO / "BENCH_baseline.json")
    for argv in (["--list"], ["--json-out", artifact],
                 ["--check", artifact], ["--identity", blessed, artifact],
                 ["fig8", "--identity", blessed],
                 ["fig1", "fig8", "--jobs", "2"],
                 ["fig6", "fig8", "obs", "attr", "avail", "--trace-out",
                  f"{scratch}/trace.json", "--attr-out",
                  f"{scratch}/attr.json"]):
        bench(argv)
    for name in WORKLOADS:
        for size in ([], ["--reduced"]):
            hostbench(["--workload", name, "--repeats", "1", *size])
    algos()
    plane(["--trace-out", f"{scratch}/plane.json",
           "--bundle-out", f"{scratch}/incident.json"])
    for example in sorted((REPO / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")


def main(argv):
    functions = defined_functions()
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as scratch, \
            open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null):
        sys.setprofile(profile)
        try:
            run_traffic(scratch)
        finally:
            sys.setprofile(None)

    never = {key: (lines, exempt)
             for where, (key, lines, exempt) in functions.items()
             if where not in entered}
    # a function nested in a never-entered one is counted with it
    never = {key: value for key, value in never.items()
             if not any(key.startswith(outer + ".") for outer in never)}
    exempt = {key for key, (_lines, by_rule) in never.items() if by_rule}
    never = {key: lines for key, (lines, _by_rule) in never.items()}
    unlisted = sorted(set(never) - exempt - set(KEPT))
    rotten = sorted(set(KEPT) - set(never))
    for key in sorted(never):
        reason = ("exempt by rule" if key in exempt
                  else KEPT.get(key, "NO TRAFFIC AND NOT IN KEPT"))
        print(f"{never[key]:4d}  {key}  -- {reason}")
    print(f"{len(functions)} functions, {len(never)} never entered "
          f"({sum(never.values())} lines): {len(exempt)} exempt by "
          f"rule, {len(never) - len(exempt) - len(unlisted)} kept "
          f"with a reason, {len(unlisted)} unlisted")
    for key in rotten:
        print(f"KEPT entry has traffic (or is gone), delete it: {key}")
    return 1 if "--check" in argv and (unlisted or rotten) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
