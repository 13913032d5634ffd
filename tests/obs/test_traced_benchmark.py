"""End-to-end telemetry acceptance tests.

The issue's bar: a traced Fig. 8 DDS run must export Chrome trace
JSON with at least the three engine categories (compute, network,
storage) correctly nested, and enabling tracing must not change any
simulated result.
"""

import json

from repro.bench.__main__ import main
from repro.bench.experiments_system import fig6_sproc, fig8_dds_latency
from repro.core import DpdpuRuntime
from repro.hardware import BLUEFIELD2, make_server
from repro.obs import Telemetry
from repro.sim import Environment


class TestTracedFig8:
    def _traced(self):
        telemetry = Telemetry(tracing=True)
        results = fig8_dds_latency(telemetry=telemetry)
        return telemetry, results

    def test_exports_all_three_engine_categories(self, tmp_path):
        telemetry, _ = self._traced()
        path = tmp_path / "fig8.json"
        count = telemetry.tracer.write_chrome(str(path))
        assert count > 0
        document = json.loads(path.read_text())
        categories = {event["cat"]
                      for event in document["traceEvents"]
                      if event.get("ph") == "X"}
        assert {"compute", "network", "storage"} <= categories

    def test_causal_tree_nests_engines(self):
        telemetry, _ = self._traced()
        tracer = telemetry.tracer
        # Pick any SSD-level span and walk up: it must sit under the
        # DPU read, which sits under the DDS request root.
        by_id = {s.span_id: s for s in tracer.all_spans()}
        ssd_spans = [s for s in by_id.values() if s.name == "ssd.read"]
        assert ssd_spans, "no SSD read spans recorded"
        for span in ssd_spans:
            names = []
            parent_id = span.parent_id
            while parent_id is not None:
                names.append(by_id[parent_id].name)
                parent_id = by_id[parent_id].parent_id
            assert "se.dpu_read" in names
            assert names[-1] == "dds.request"
            assert span._root.name == "dds.request"

    def test_every_request_span_is_finished(self):
        telemetry, _ = self._traced()
        open_spans = [s for s in telemetry.tracer.all_spans()
                      if not s.finished]
        assert open_spans == []

    def test_tracing_does_not_perturb_results(self):
        baseline = fig8_dds_latency(None)
        traced = fig8_dds_latency(telemetry=Telemetry(tracing=True))
        metrics_only = fig8_dds_latency(telemetry=Telemetry())
        assert traced == baseline
        assert metrics_only == baseline

    def test_trace_is_deterministic(self):
        def signature():
            telemetry, _ = self._traced()
            return [(s.name, s.span_id, s.parent_id, s.start_s, s.end_s)
                    for s in telemetry.tracer.all_spans()]

        assert signature() == signature()


class TestTracedFig6:
    def test_compute_spans_present(self):
        telemetry = Telemetry(tracing=True)
        fig6_sproc(BLUEFIELD2, "specified", n_invocations=3,
                   telemetry=telemetry)
        tracer = telemetry.tracer
        assert "compute" in {s.category for s in tracer.all_spans()}
        sprocs = [s for s in tracer.all_spans()
                  if s.name == "ce.sproc.read_compress_send_pages"]
        assert len(sprocs) == 3
        kernels = [s for s in tracer.all_spans()
                   if s.name == "ce.kernel.compress"]
        assert kernels
        # Kernel submissions made inside a sproc body link to its run.
        run_ids = {s.span_id for s in tracer.all_spans()
                   if s.name.endswith(".run")}
        assert any(k.parent_id in run_ids for k in kernels)


class TestRegistryIntegration:
    def test_register_runtime_names(self):
        env = Environment()
        server = make_server(env, name="s", dpu_profile=BLUEFIELD2)
        telemetry = Telemetry()
        DpdpuRuntime(server, telemetry=telemetry)
        names = telemetry.metrics
        for expected in ("host.cpu.cycles", "dpu.cpu.cycles",
                         "ce.kernel.execs", "ne.ops_offloaded",
                         "se.host_ops", "se.fs.bytes_read",
                         "se.journal.appends"):
            assert expected in names
        snapshot = telemetry.metrics.snapshot(env.now)
        assert snapshot["host.cpu.cycles"] >= 0.0

    def test_tracers_lists_the_one_node_only_while_tracing(self):
        traced = Telemetry(tracing=True, name="fig8")
        assert traced.tracers() == [("fig8", traced.tracer)]
        assert Telemetry(name="fig8").tracers() == []
        bundle = Telemetry(tracing=True, name="t", node="node3")
        assert bundle.tracers() == [("node3", bundle.tracer)]

    def test_default_runtime_builds_own_telemetry(self):
        env = Environment()
        server = make_server(env, name="s", dpu_profile=BLUEFIELD2)
        runtime = DpdpuRuntime(server)
        assert runtime.telemetry.tracer.enabled is False
        assert len(runtime.telemetry.metrics) > 0


class TestCliTraceOut:
    def test_trace_out_writes_valid_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["--trace-out", str(path), "fig8"]) == 0
        out = capsys.readouterr().out
        assert "flame summary" in out
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        categories = {event["cat"]
                      for event in document["traceEvents"]
                      if event.get("ph") == "X"}
        assert {"compute", "network", "storage"} <= categories

    def test_trace_out_without_traceable_fails(self, tmp_path, capsys):
        # A --trace-out invocation that selects no traceable
        # experiment is a misconfiguration: distinct nonzero exit so
        # CI catches it instead of silently shipping no trace.
        path = tmp_path / "trace.json"
        assert main(["--trace-out", str(path), "a4"]) == 3
        assert "no traceable experiment" in capsys.readouterr().err
        assert not path.exists()
