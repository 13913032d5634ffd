"""Execution census: which ``src/repro`` functions, and which arms of
the functions that do run, no traffic reaches.

``python tests/traffic_census.py [--check]`` runs, in this process and
under ``sys.monitoring`` (PEP 669, so Python 3.12+), everything the
product is judged by — the 19 ``repro.bench`` experiments, the traced
run of every traceable one
(``--trace-out`` with no ids), the five hostbench workloads at full and
``--reduced`` size, the nine examples and the two CLIs (``--jobs 2``,
``--jobs 0``, ``--list``, ``--check``, both ``--identity`` forms,
``python -m repro.algos``) — and prints two tables from that one run:

* **functions** — every function under ``src/repro`` whose code object
  was never entered;
* **arms** — every arm of an entered function that never ran.  An arm
  is an ``if`` / ``elif`` / ``else``, loop (and loop-``else``),
  ``with``, ``try`` / ``try``-``else``, ``except``, ``finally`` or
  ``case`` body; it ran when its first statement did.  An arm inside
  an arm that never ran is counted with it.

Tests are not traffic, and neither is a frame into which
``GeneratorExit`` was thrown, nor a call made while one is being
handled: the collector finalizes a finished run's abandoned processes
whenever it happens to run, so what that reaches would change from one
run to the next.

Exempt by rule, as safety code that needs no traffic to earn its
place: ``repro.algos`` (known-answer surfaces whose callers are the
golden tests, not traced at all); dunder methods and abstract stubs (a
body that only raises ``NotImplementedError``); and these arms —

* a body that only raises, or only fails a request or event (a span's
  ``annotate`` / ``finish`` beside it is allowed);
* an ``except`` or ``finally`` body;
* validation of outside input: a ``__main__`` usage error (a body that
  returns a non-zero exit status), an ``obs/artifact.py`` validator, an
  ``obs/claims.py`` FAIL or SKIP verdict;
* a one-statement guard that returns a literal.

Every other survivor is in ``KEPT`` (functions) or ``KEPT_ARMS`` (arms,
keyed ``path:Qual.name:<first statement>``) with its reason;
``--check`` exits 1 on a survivor missing from its table and on a table
entry that did get traffic, so neither table can rot.  Each code
object's start and each line is reported once and then switched off,
so the run costs little more than the traffic itself; stdlib only.
The module imports on any supported Python: tier-1 reads its tables,
and :func:`render_tables` renders ``docs/ROBUSTNESS.md``'s copy of
them from the tables and the source alone, with no traffic.
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

_MISMATCH = "runs only when --identity finds a difference (ROADMAP 7)"
_PAPER = "paper-named interface, tests are its callers (PAPER.md s1)"
_SCALE_DOWN = ("retiring idle capacity: every slo cell ends loaded; "
               "hostbench's cluster workloads set its policy fields, so "
               "it goes with the next hostbench change (ROADMAP 1a)")

#: never entered by any traffic, kept for a stated reason
KEPT = {
    # -- safety without traffic ----------------------------------------
    "fs/pagecache.py:PageCache.invalidate":
        "cache coherence after an overwrite: A3 only reads (ROADMAP 9a)",
    "core/scheduler.py:SprocScheduler._spill":
        "host spill-over under DPU backlog: off in every experiment "
        "(ROADMAP 5b knockout)",
    "cluster/autoscale.py:Autoscaler._scale_down": _SCALE_DOWN,
    "sim/core.py:Timeout.fail": "refuses a hand-triggered timer",
    "sim/core.py:Timeout.succeed": "refuses a hand-triggered timer",
    "sim/core.py:Environment.peek":
        "how the schedule-order reference interpreter and the "
        "eventless-occupancy tests see the next event (ROADMAP 2b)",
    "hardware/memory.py:MemoryRegion.used_bytes":
        "DPU DRAM occupancy: becomes a bound resource (ROADMAP 9a)",
    "obs/attr/criticalpath.py:RequestAttribution.to_dict":
        "the per-request ledger the tracer goldens in "
        "tests/obs/test_trace_cost.py hash (ROADMAP 3)",
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
}

_A_KERNEL = ("a DP kernel on the buffer kind no experiment feeds it: "
             "kernels take synthetic or real bytes (PAPER.md s1, CE)")
_A_PAYLOAD = ("a DP-kernel handle takes raw bytes or a size, as "
              "Figure 6's ce.get_dpk does (PAPER.md s1, CE)")
_A_DFI = "two-sided verbs under the DFI-style flow interface (PAPER.md s1)"
_A_SOCKET = "the NE's offloaded TCP socket ops (PAPER.md s1, NE)"
_A_UDF = ("the offload engine's UDF contract: a message it cannot parse "
          "passes or is answered opaquely (PAPER.md s1, SE)")
_A_SCHEDULE = ("scheduled execution over every placement, PCIe peers "
               "included: A6 specifies its GPU (PAPER.md s1, CE)")
_D_FAULT = ("a fault path no experiment's plan reaches; item 18's "
            "generated crash-window plans will (ROADMAP 18)")
_D_LOSS = ("loss, reorder and flow control: no experiment drops, reorders "
           "or backs up a segment; item 18's generated link-flap plans "
           "will (ROADMAP 18)")
_D_TWIN = ("the other half of an inline/queued pair, which every run "
           "takes; item 2(b) leaves one way to occupy a slot (ROADMAP 2)")
_D_TRACE = ("tracing no traced experiment reaches; item 3 runs every "
            "experiment traced (ROADMAP 3)")

#: arms of entered functions that never ran: (a reason from the closed
#: list ``REASONS`` of ``tests/test_kernel_api_traffic.py``, detail)
KEPT_ARMS = {
    # -- (a) paper-named interfaces -------------------------------------
    "baselines/host_served.py:HostServedStorage._handle:return ACK":
        ("a", _A_UDF),
    "buffers.py:as_buffer:return RealBuffer(payload)": ("a", _A_PAYLOAD),
    "buffers.py:as_buffer:return SynthBuffer(payload)": ("a", _A_PAYLOAD),
    "buffers.py:record_column:count = len(fields) - fields.count(None)":
        ("a", "which record a filter/project column is missing from "
              "(PAPER.md s1, CE)"),
    "cluster/router.py:ClusterDdsServer._handle:response = yield from "
    "self._dispatch(request, message,":
        ("a", "a cluster node serves a file-addressed request as a "
              "plain DDS server does (PAPER.md s1, SE)"),
    "core/compute.py:ComputeEngine._estimates:device = None #2":
        ("a", _A_SCHEDULE),
    "core/dds.py:DdsServer._forward_to_host:yield from "
    "self.server.host_cpu.execute(HOST_REQUEST_CYCLES)":
        ("a", "the traffic director's host path for a read: every "
              "experiment offloads reads (PAPER.md s1, SE)"),
    "core/dds.py:DdsServer._forward_to_host:yield from "
    "self.server.host_cpu.execute(HOST_REQUEST_CYCLES) #2":
        ("a", "the traffic director's host path for a write: every "
              "experiment offloads writes (PAPER.md s1, SE)"),
    "core/dds.py:DdsServer._forward_to_host:yield from "
    "self.server.host_cpu.execute(HOST_REQUEST_CYCLES) #3":
        ("a", _A_UDF),
    "core/kernels.py:_decompress_fn:out: Buffer = "
    "RealBuffer(inflate(buffer.data))": ("a", _A_KERNEL),
    "core/kernels.py:_encrypt_fn:out = buffer.with_size(buffer.size, "
    "label_suffix=\".enc\")": ("a", _A_KERNEL),
    "core/kernels.py:_regex_fn:density = params.get(\"match_density\", "
    "1 / 64)": ("a", _A_KERNEL),
    "core/kernels.py:_project_fn:record_column(buffer.data, c, "
    "delimiter, separator)":
        ("a", "project raises what filter raises for a negative "
              "column (PAPER.md s1, CE)"),
    "core/kernels.py:_project_fn:rows = ([fields[c] for c in picks if "
    "fields[c] is not None]":
        ("a", "project over ragged records (PAPER.md s1, CE)"),
    "core/network.py:NetworkEngine._do_rdma:done = yield from "
    "qp.post_send(item[\"buffer\"])": ("a", _A_DFI),
    "core/network.py:NetworkEngine._poller:"
    "self.env.process(self._do_tcp_connect(item))": ("a", _A_SOCKET),
    "core/network.py:NetworkEngine._poller:"
    "self.env.process(self._do_tcp_send(item))": ("a", _A_SOCKET),
    "core/requests.py:wait:yield request.done":
        ("a", "the async-I/O front-end's wait with no budget "
              "(PAPER.md s1)"),
    "core/wire.py:_restamp:return message": ("a", _A_UDF),
    "core/wire.py:encode_sproc:return RealBuffer(encoded)":
        ("a", "a sproc argument longer than the fixed header "
              "(PAPER.md s1, CE)"),
    "fs/filesystem.py:FileSystem.write:self._grow(inode, end)":
        ("a", "the POSIX-like file API grows a file written past its "
              "end; every experiment pre-sizes its files (PAPER.md s1)"),
    "netstack/rdma.py:RdmaMemoryRegion.read:return stored":
        ("a", "one-sided RDMA reads back what a write stored; F7 reads "
              "a region nobody wrote (PAPER.md s1, NE)"),
    "netstack/rdma.py:RdmaNode._nic_loop:self._handle_send(frame)":
        ("a", _A_DFI),
    "query/scan.py:QueryResult.matches.close:return a == b":
        ("a", "comparing aggregates over no rows (min/max None); every "
              "query selects some (PAPER.md s1, CE)"),
    # -- (c) a test hands in another form -------------------------------
    # -- (d) a ROADMAP item names the caller ----------------------------
    "baselines/host_served.py:HostServedStorage._handle:"
    "yield self.env.timeout(wake)": ("d", _D_TWIN),
    "bench/experiments_availability.py:availability_tcp_blackhole."
    "blackholed_client:result[\"deadline_hit\"] = 0.0":
        ("d", "a connect that gets through a down link, reported as "
              "deadline_hit 0: the outcome AV measures against; item 5 "
              "makes claims fail (ROADMAP 5)"),
    "bench/experiments_obs.py:_merged_connectivity:dangling += 1":
        ("d", "the count OB's connectivity claim fails on: a span whose "
              "parent is missing; item 5 makes claims fail (ROADMAP 5)"),
    "cluster/autoscale.py:Autoscaler._decide:"
    "return self._scale_down(live)": ("d", _SCALE_DOWN),
    "cluster/rebalance.py:MigrationService._serve:"
    "self.export_errors.add(1)": ("d", _D_FAULT),
    "cluster/router.py:ClusterDdsServer._serve_scan:"
    "self.shard_failovers.add(1)": ("d", _D_FAULT),
    "cluster/sharding.py:ShardMap.remove_node:del self._splits[shard]":
        ("d", _D_FAULT),
    "core/compute.py:ComputeEngine._device_down:"
    "return injector.is_down(f\"cpu.{device.name}\")": ("d", _D_FAULT),
    "core/compute.py:ComputeEngine._estimates:continue": ("d", _D_FAULT),
    "core/scheduler.py:SprocScheduler.submit:"
    "injector = getattr(self.cpu, \"injector\", None)":
        ("d", "host spill-over: off in every experiment (ROADMAP 5b "
              "knockout)"),
    "core/storage.py:StorageEngine._invalidate:"
    "cache.invalidate((file_id, offset, size))":
        ("d", "cache coherence after an overwrite: A3 only reads "
              "(ROADMAP 9a)"),
    "core/wire.py:with_trace_context:return message": ("d", _D_TRACE),
    "faults/injector.py:FaultInjector.install:"
    "server.nic.wire.injector = self": ("d", _D_FAULT),
    "fs/pagecache.py:PageCache.put:self._remove(key)":
        ("d", "a page cached again after an overwrite: A3 only reads "
              "(ROADMAP 9a)"),
    "netstack/rdma.py:RdmaQp._complete:"
    "span.annotate(latency_s=self.env.now - posted_at)": ("d", _D_TRACE),
    "netstack/rdma.py:RdmaQp._post:"
    "self._pending_spans[wr_id] = self.node.tracer.begin(":
        ("d", _D_TRACE),
    "netstack/tcp.py:TcpConnection._accept_segment:"
    "self._messages.put(message)": ("d", _D_TWIN),
    "netstack/tcp.py:TcpConnection._consumed:self.stack._post_ack(self)":
        ("d", _D_LOSS),
    "netstack/tcp.py:TcpConnection._on_ack:snd_buffer.put(credit)":
        ("d", _D_TWIN),
    "netstack/tcp.py:TcpConnection._on_data:self._accept_segment(":
        ("d", _D_LOSS),
    "netstack/tcp.py:TcpConnection._on_data:"
    "self._out_of_order[seq] = segment": ("d", _D_LOSS),
    "netstack/tcp.py:TcpConnection._send_message_traced:"
    "payload = buffer.slice(":
        ("d", "the traced sender item 3(a) deletes (ROADMAP 3)"),
    "netstack/tcp.py:TcpConnection._sender_loop:break #3":
        ("d", _D_LOSS),
    "netstack/tcp.py:TcpStack._on_syn:pass": ("d", _D_LOSS),
    "netstack/tcp.py:TcpStack._post_ctrl:queue.put(frame)":
        ("d", _D_TWIN),
    "obs/attr/criticalpath.py:categorize:"
    "device = span.attrs.get(\"device\", \"\")":
        ("d", "a DP kernel on a traced cluster: cluster experiments run "
              "none (ROADMAP 9)"),
    "obs/attr/online.py:AttributionCollector.collect:"
    "_observe_kernel(kernels, span)":
        ("d", "a DP kernel on a traced cluster: cluster experiments run "
              "none (ROADMAP 9)"),
    "obs/plane/recorder.py:FlightRecorder.trigger:"
    "nodes[name] = {\"spans\": [], \"open_spans\": 0}":
        ("d", "an incident on a plane whose tracing is off: item 17's "
              "liveness law files one (ROADMAP 17)"),
    "obs/regress.py:differences:found.append(Difference(path, old, new))":
        ("d", _MISMATCH),
    "obs/telemetry.py:Telemetry.register_runtime:"
    "metrics.register(f\"se.cache.{label}.hits\", cache.hits)":
        ("d", "a traced runtime with an SE page cache: A3 runs "
              "untraced (ROADMAP 3)"),
    "obs/trace.py:Tracer._on_finish:stack.remove(span)": ("d", _D_TRACE),
    "sim/core.py:AllOf._check:event._defused = True": ("d", _D_FAULT),
    "sim/resources.py:Container._drain:amount, event = putters[0]":
        ("d", _D_TWIN),
    "sim/resources.py:Container.try_get:self._drain()": ("d", _D_TWIN),
    "sim/resources.py:Store._drain:remaining.append(getter)":
        ("d", _D_TWIN),
    "sim/resources.py:Store.try_get:"
    "for index, item in enumerate(items):": ("d", _D_TWIN),
    # -- (f) a guard on degenerate input, its tier-1 test the caller ----
    "cluster/cluster.py:ClusterClient.connect_all:continue":
        ("f", "a node retired by a crash drain or by scale-down is not "
              "dialled: tests/cluster/test_rebalance.py::TestRebalance::"
              "test_reads_succeed_against_new_owners"),
    "core/traffic.py:TrafficDirector.protect:return self.breaker":
        ("f", "protecting twice keeps one breaker: tests/faults/"
              "test_failover.py::TestProtect::test_protect_is_idempotent"),
    "hardware/nic.py:FlowTable.remove_rule:del self._rules[index]":
        ("f", "a second trip while failed over keeps one failover rule: "
              "tests/faults/test_failover.py::TestProtect::"
              "test_retrip_from_half_open_keeps_single_rule"),
    "hardware/switch.py:Switch.carry:self.frames_dropped.add(1)":
        ("f", "a frame addressed to no port is dropped and counted: "
              "tests/hardware/test_switch.py::TestSwitchBasics::"
              "test_unknown_destination_dropped"),
    "netstack/tcp.py:TcpStack.connect:break":
        ("f", "a connect budget spent before the SYN-ACK wait: "
              "tests/netstack/test_tcp.py::TestHandshake::"
              "test_zero_connect_budget_raises_before_waiting"),
    "obs/metrics.py:MetricsRegistry.counter:"
    "if not isinstance(existing, Counter):":
        ("f", "a name registered as another kind: tests/obs/"
              "test_metrics_registry.py::TestCreateOrFetch::"
              "test_kind_mismatch_raises"),
    "obs/metrics.py:MetricsRegistry.register:"
    "if existing is instrument:":
        ("f", "the same instrument registered twice: tests/obs/"
              "test_metrics_registry.py::TestAdoption::"
              "test_register_same_object_is_idempotent"),
    "sim/batch.py:EventPopulation.__init__:self.succeed(0)":
        ("f", "an empty population: tests/sim/test_batch.py::"
              "TestPopulationVsScalarIdentity::"
              "test_empty_population_succeeds_immediately"),
    "sim/core.py:ConditionEvent.__init__:"
    "self.succeed(self._collect())":
        ("f", "a condition over no events: tests/sim/test_core.py::"
              "TestConditions::test_empty_all_of_fires_immediately"),
    "sim/core.py:Process._resume:error = SimulationError(":
        ("f", "a process that yields a non-event: tests/sim/"
              "test_core.py::TestProcesses::"
              "test_yield_non_event_is_error"),
    "sim/stats.py:TimeWeighted.average:return self._level":
        ("f", "an average over no elapsed time: tests/sim/"
              "test_stats.py::TestTimeWeighted::"
              "test_zero_elapsed_returns_current_level"),
}


def _qualified_defs(tree, where):
    """``(key, node)`` for every function and method in ``tree``; the
    key is ``pkg/file.py:Qual.name``."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{where}:{prefix}{child.name}", child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def _first_line(function):
    """The code object's first line: its first decorator's."""
    return min([function.lineno] + [decorator.lineno
                                    for decorator in function.decorator_list])


def sources(root):
    """``(path, path under root, lines, syntax tree)`` of every module
    under ``root`` outside ``algos``."""
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        if where.parts[0] != "algos":
            text = path.read_text()
            yield path, where, text.splitlines(), ast.parse(text)


def defined_functions(modules):
    """``{(path, first line): (key, line count, exempt by rule)}`` for
    every function and method in ``modules``."""
    found = {}
    for path, where, _lines, tree in modules:
        for key, function in _qualified_defs(tree, where):
            first, last = _first_line(function), function.body[-1]
            found[str(path), first] = (
                key, function.end_lineno - first + 1,
                function.name.startswith("__")
                or isinstance(last, ast.Raise)
                and "NotImplementedError" in ast.unparse(last))
    return found


# -- arms -------------------------------------------------------------------

#: the body fields of a compound statement, and what each body is called
_ARM_FIELDS = {
    ast.For: (("body", "for"), ("orelse", "for-else")),
    ast.AsyncFor: (("body", "for"), ("orelse", "for-else")),
    ast.While: (("body", "while"), ("orelse", "while-else")),
    ast.With: (("body", "with"),),
    ast.AsyncWith: (("body", "with"),),
    ast.Try: (("body", "try"), ("orelse", "try-else"),
              ("finalbody", "finally")),
}
_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _header(statement):
    """The lines of ``statement`` whose execution means it began: a
    compound statement's header, a simple statement's every line."""
    if isinstance(statement, (ast.If, ast.While)):
        last = statement.test.end_lineno
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        last = statement.iter.end_lineno
    elif isinstance(statement, (ast.With, ast.AsyncWith)):
        last = statement.items[-1].context_expr.end_lineno
    elif hasattr(statement, "subject"):         # match (3.10+)
        last = statement.subject.end_lineno
    elif isinstance(statement, ast.Try):
        return _header(statement.body[0])
    elif isinstance(statement, _NESTED):
        return range(_first_line(statement), statement.body[0].lineno)
    else:
        last = statement.end_lineno
    return range(statement.lineno, last + 1)


def _arms(body):
    """``(kind, body, inner arms)`` for every arm of a function body,
    nested functions and classes excluded (they are functions of their
    own)."""
    for statement in body:
        if isinstance(statement, _NESTED):
            continue
        pairs = [(getattr(statement, field), kind)
                 for field, kind in _ARM_FIELDS.get(type(statement), ())]
        if isinstance(statement, ast.If):
            # an elif chain is one statement with one arm per branch
            pairs.append((statement.body, "if"))
            tail = statement
            while len(tail.orelse) == 1 \
                    and isinstance(tail.orelse[0], ast.If):
                tail = tail.orelse[0]
                pairs.append((tail.body, "elif"))
            pairs.append((tail.orelse, "else"))
        pairs += [(handler.body, "except")
                  for handler in getattr(statement, "handlers", ())]
        pairs += [(case.body, "case")
                  for case in getattr(statement, "cases", ())]
        for arm, kind in pairs:
            if arm:
                yield kind, arm, list(_arms(arm))


def _call_name(node):
    if isinstance(node, (ast.Expr, ast.Return)) \
            and isinstance(node.value, ast.Call):
        function = node.value.func
        return getattr(function, "attr", getattr(function, "id", None))
    return None


def _fails_only(arm):
    """A body that only raises or fails a request or event (a span's
    annotate/finish beside it allowed), maybe ending in a bare
    ``return``."""
    if isinstance(arm[-1], ast.Return) and arm[-1].value is None:
        arm = arm[:-1]
    names = [_call_name(statement) for statement in arm]
    return bool(arm) and all(
        isinstance(statement, ast.Raise)
        or name in ("fail", "annotate", "finish")
        for statement, name in zip(arm, names)) \
        and any(isinstance(statement, ast.Raise) or name == "fail"
                for statement, name in zip(arm, names))


def _returns_literal(arm):
    if len(arm) != 1 or not isinstance(arm[0], ast.Return):
        return False
    if arm[0].value is None:
        return True
    try:
        ast.literal_eval(arm[0].value)
    except ValueError:
        return False
    return True


def _names(arm):
    return {node.id for statement in arm for node in ast.walk(statement)
            if isinstance(node, ast.Name)}


def _validates_input(where, arm):
    """A ``__main__`` usage error (ends returning a non-zero status), an
    ``obs/artifact.py`` validator (only appends to ``errors``) or an
    ``obs/claims.py`` FAIL / SKIP verdict."""
    if where.name == "__main__.py":
        last = arm[-1]
        return isinstance(last, ast.Return) \
            and isinstance(last.value, ast.Constant) \
            and type(last.value.value) is int and last.value.value != 0
    if str(where) == "obs/artifact.py":
        return all(isinstance(statement, (ast.Continue, ast.Return))
                   or _call_name(statement) == "append"
                   and "errors" in _names([statement])
                   for statement in arm)
    if str(where) == "obs/claims.py":
        return bool({"FAIL", "SKIP"} & _names(arm))
    return False


def exempt_arm(where, kind, arm):
    """The rule that exempts this arm, or ``None``."""
    if kind in ("except", "finally"):
        return f"{kind} body"
    if _fails_only(arm):
        return "only raises or fails"
    if _validates_input(where, arm):
        return "validates outside input"
    if _returns_literal(arm):
        return "returns a literal"
    return None


def defined_arms(modules):
    """``{(path, first line of the enclosing function): [(key, kind,
    header lines, line count, exempting rule, inner arms)]}``; the key
    is ``path:Qual.name:<first statement's first line>``, numbered
    ``#2``, ``#3`` on a repeat within one function."""
    found = {}
    for path, where, lines, tree in modules:
        for key, function in _qualified_defs(tree, where):
            seen = {}

            def build(arms):
                built = []
                for kind, arm, inner in arms:
                    text = lines[arm[0].lineno - 1].strip()
                    arm_key = f"{key}:{text}"
                    seen[arm_key] = seen.get(arm_key, 0) + 1
                    if seen[arm_key] > 1:
                        arm_key += f" #{seen[arm_key]}"
                    built.append((
                        arm_key, kind, _header(arm[0]),
                        arm[-1].end_lineno - arm[0].lineno + 1,
                        exempt_arm(where, kind, arm), build(inner)))
                return built

            found[str(path), _first_line(function)] = build(
                _arms(function.body))
    return found


def _count_arms(arms):
    return sum(1 + _count_arms(inner) for *_rest, inner in arms)


def unrun_arms(arms, executed):
    """The outermost arms in ``arms`` none of whose header lines is in
    ``executed``."""
    unrun = []
    for key, kind, header, count, rule, inner in arms:
        if any(line in executed for line in header):
            unrun += unrun_arms(inner, executed)
        else:
            unrun.append((key, kind, count, rule))
    return unrun


# -- the tables docs/ROBUSTNESS.md shows ------------------------------------

def _split_citation(reason):
    """``(why, where traffic should come from)``: a trailing
    ``(ROADMAP ...)`` or ``(PAPER.md ...)`` is the second."""
    why, opened, cited = reason.rpartition(" (")
    if opened and cited.endswith(")") \
            and cited.startswith(("ROADMAP", "PAPER.md")):
        return why, cited[:-1]
    return reason, "\u2014"


def render_tables():
    """``KEPT`` and ``KEPT_ARMS`` as ``docs/ROBUSTNESS.md`` shows them,
    each row with the lines it holds, and each table's total line.

    Built from the two tables and the source alone, so it needs no
    traffic; a row whose function or arm is gone raises ``KeyError``.
    The census's summary lines, which do need traffic, are not part of
    it."""
    modules = list(sources(SRC / "repro"))
    lines = {key: count for key, count, _exempt
             in defined_functions(modules).values()}
    arms = {}

    def flatten(built):
        for key, kind, _header, count, _rule, inner in built:
            arms[key] = kind, count
            flatten(inner)

    for built in defined_arms(modules).values():
        flatten(built)
    rows = ["| function | lines | why it stays | traffic should come from |",
            "|---|---|---|---|"]
    for key in sorted(KEPT):
        rows.append("| `{}` | {} | {} | {} |".format(
            key, lines[key], *_split_citation(KEPT[key])))
    rows += ["", f"{len(KEPT)} functions, "
             f"{sum(lines[key] for key in KEPT)} lines.", "",
             "| arm | kind | lines | reason |", "|---|---|---|---|"]
    for key in sorted(KEPT_ARMS):
        rows.append("| `{}` | {} | {} | ({}) {} |".format(
            key, *arms[key], *KEPT_ARMS[key]))
    rows += ["", f"{len(KEPT_ARMS)} arms, "
             f"{sum(arms[key][1] for key in KEPT_ARMS)} lines."]
    return "\n".join(rows)


# -- the run ----------------------------------------------------------------


def run_traffic(scratch):
    """Everything the product is judged by, in this process."""
    sys.path[:0] = [str(SRC), str(REPO)]
    from hostbench.__main__ import main as hostbench
    from hostbench.spec import WORKLOADS
    from repro.algos.__main__ import main as algos
    from repro.bench.__main__ import main as bench

    artifact = f"{scratch}/bench.json"
    blessed = str(REPO / "BENCH_baseline.json")
    for argv in (["--list"], ["--json-out", artifact],
                 ["--check", artifact], ["--identity", blessed, artifact],
                 ["fig8", "--identity", blessed],
                 ["fig1", "fig8", "--jobs", "2"], ["fig1", "--jobs", "0"],
                 ["--trace-out", f"{scratch}/trace.json",
                  "--attr-out", f"{scratch}/attr.json"]):
        bench(argv)
    for name in WORKLOADS:
        for size in ([], ["--reduced"]):
            hostbench(["--workload", name, "--repeats", "1", *size])
    algos()
    for example in sorted((REPO / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")


def traced(traffic, root):
    """Run ``traffic()`` under ``sys.monitoring`` (PEP 669, Python
    3.12+); return the ``(path, first line)`` of every code object
    entered under ``root`` (``algos`` excepted) and ``{path: lines
    executed}``.

    A code object's start and each of its lines is reported once and
    then disabled, so traffic runs at close to full speed.  Teardown —
    a frame ``GeneratorExit`` was thrown into, until it ends, and
    everything it calls — records nothing and disables nothing: a line
    first reached there still counts when traffic reaches it later."""
    monitoring = sys.monitoring
    events, disable = monitoring.events, monitoring.DISABLE
    tool = monitoring.COVERAGE_ID
    skip = str(root / "algos")
    root = str(root)
    entered, executed = set(), {}
    #: frames GeneratorExit was thrown into, innermost last
    closing = []

    def counted(code):
        path = code.co_filename
        return path.startswith(root) and not path.startswith(skip)

    def teardown():
        frame = sys._getframe(2)                # the monitored frame
        while closing:
            caller = frame
            while caller is not None and caller is not closing[-1]:
                caller = caller.f_back
            if caller is not None:
                return True
            closing.pop()       # it caught GeneratorExit and returned
        return False

    def on_start(code, _offset):
        if not counted(code):
            return disable
        if teardown():
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return disable

    def on_line(code, line):
        if not counted(code):
            return disable
        if teardown():
            return None
        executed.setdefault(code.co_filename, set()).add(line)
        return disable

    def on_throw(_code, _offset, exception):
        if isinstance(exception, GeneratorExit):
            closing.append(sys._getframe(1))

    def on_unwind(_code, _offset, _exception):
        if closing and closing[-1] is sys._getframe(1):
            closing.pop()

    callbacks = {events.PY_START: on_start, events.LINE: on_line,
                 events.PY_THROW: on_throw, events.PY_UNWIND: on_unwind}
    monitoring.use_tool_id(tool, "traffic census")
    try:
        for event, callback in callbacks.items():
            monitoring.register_callback(tool, event, callback)
        monitoring.restart_events()
        monitoring.set_events(tool, sum(callbacks))
        traffic()
    finally:
        monitoring.set_events(tool, 0)
        for event in callbacks:
            monitoring.register_callback(tool, event, None)
        monitoring.free_tool_id(tool)
    return entered, executed


def main(argv):
    if sys.version_info < (3, 12):
        print("the census runs under sys.monitoring: Python 3.12+",
              file=sys.stderr)
        return 2
    modules = list(sources(SRC / "repro"))
    with tempfile.TemporaryDirectory() as scratch, \
            open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null):
        entered, executed = traced(lambda: run_traffic(scratch),
                                   SRC / "repro")
    return report(defined_functions(modules), defined_arms(modules),
                  entered, executed, "--check" in argv)


def report(functions, arms, entered, executed, check):
    """Print both tables; the exit status ``--check`` gives."""
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
    print("never-entered functions:")
    for key in sorted(never):
        reason = ("exempt by rule" if key in exempt
                  else KEPT.get(key, "NO TRAFFIC AND NOT IN KEPT"))
        print(f"{never[key]:4d}  {key}  -- {reason}")
    print(f"{len(functions)} functions, {len(never)} never entered "
          f"({sum(never.values())} lines): {len(exempt)} exempt by "
          f"rule, {len(never) - len(exempt) - len(unlisted)} kept "
          f"with a reason, {len(unlisted)} unlisted")

    entered_arms = [function_arms for where, function_arms in arms.items()
                    if where in entered]
    unrun = sorted(arm for where, function_arms in arms.items()
                   if where in entered
                   for arm in unrun_arms(function_arms,
                                         executed.get(where[0], ())))
    unlisted_arms = []
    print("\narms of entered functions that never ran:")
    for key, kind, count, rule in unrun:
        if rule:
            reason = f"exempt: {rule}"
        elif key in KEPT_ARMS:
            reason = "({}) {}".format(*KEPT_ARMS[key])
        else:
            reason = "NO TRAFFIC AND NOT IN KEPT_ARMS"
            unlisted_arms.append(key)
        print(f"{count:4d}  {kind:<10} {key}  -- {reason}")
    listed = {key for key, _kind, _count, rule in unrun if not rule}
    rotten += sorted(set(KEPT_ARMS) - listed)
    print(f"{sum(map(_count_arms, entered_arms))} arms in "
          f"{len(entered_arms)} entered functions, {len(unrun)} never "
          f"ran ({sum(count for _key, _kind, count, _rule in unrun)} "
          f"lines): {len(unrun) - len(listed)} exempt by rule, "
          f"{len(listed) - len(unlisted_arms)} kept with a reason, "
          f"{len(unlisted_arms)} unlisted")
    for key in rotten:
        print(f"KEPT entry has traffic (or is gone), delete it: {key}")
    return 1 if check and (unlisted or unlisted_arms or rotten) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
