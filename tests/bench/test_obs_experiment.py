"""The OB observability experiment: parts, claims, traced CLI."""

import json
from dataclasses import replace

import pytest

from repro.bench import default_slos, obs_parts
from repro.bench.harness import ROWS
from repro.bench.__main__ import EXPERIMENTS, main
from repro.obs import ClusterTelemetry
from repro.obs.artifact import encode_part, make_artifact
from repro.obs.claims import CLAIMS, evaluate_all


@pytest.fixture(scope="module")
def plane():
    """The plane of the module's one obs run (the one the CLI's
    ``--trace-out`` hands in)."""
    return ClusterTelemetry(tracing=True, name="obs")


@pytest.fixture(scope="module")
def parts(plane):
    """One full obs run for the module."""
    return obs_parts(plane)


class TestRegistration:
    def test_obs_is_a_registered_experiment(self):
        assert "obs" in EXPERIMENTS
        description, _ = EXPERIMENTS["obs"]
        assert description.startswith("OB:")

    def test_default_slos_cover_goodput_and_latency(self):
        specs = default_slos()
        assert {spec.metric for spec in specs} \
            == {"goodput_ops_per_s", "p99_latency_s"}
        assert all(spec.min_windows >= 2 for spec in specs)


class TestParts:
    def test_part_layout(self, parts):
        assert set(parts) == {"trace", "plane", "slo", "run"}
        for table in parts.values():
            json.dumps(table)    # artifact-ready

    def test_every_cross_node_path_is_traced(self, parts):
        trace = parts["trace"]
        assert trace["forwarded_hops"] >= 1
        assert trace["failover_spans"] >= 1
        assert trace["migration_spans"] >= 1
        assert trace["adopted_requests"] \
            == trace["adopted_with_trace_id"]
        assert trace["dangling_parents"] == 0
        assert trace["adopted_connected_fraction"] == 1.0

    def test_plane_watches_the_fault(self, parts):
        plane = parts["plane"]
        assert plane["snapshots"] >= 10
        assert plane["node1_goodput_post_fault"] \
            < plane["node1_goodput_pre_fault"]
        assert plane["breaker_opened"] == 1.0

    def test_slo_fires_and_records_an_incident(self, parts):
        slo = parts["slo"]
        assert slo["violations"] >= 1
        assert 0.0 <= slo["detection_latency_s"] <= 4e-3
        assert slo["incidents"] >= 1
        assert slo["slo_breach_recorded"] == 1.0

    def test_the_first_incident_bundle_is_plain_json(self, plane, parts):
        incident = json.loads(json.dumps(plane.recorder.incidents[0],
                                         sort_keys=True))
        assert incident["schema"] == "repro.obs/incident"
        assert set(incident["nodes"]) == {"node0", "node1", "node2"}


class TestClaims:
    def test_all_ob_claims_pass(self, parts):
        artifact = make_artifact(
            {"obs": {"title": "obs", "wall_clock_s": 0.0,
                     "parts": {name: encode_part(result)
                               for name, result in parts.items()}}},
            provenance={"python": "3", "platform": "test",
                        "workload_seed": 17})
        results = [r for r in evaluate_all(artifact, CLAIMS)
                   if r.claim.id.startswith("OB.")]
        assert len(results) == 11
        failed = [(r.claim.id, r.measured, r.expected)
                  for r in results if r.status != "PASS"]
        assert failed == []


class TestCliTraceOut:
    def _run(self, tmp_path, key):
        path = tmp_path / f"{key}.json"
        assert main(["--trace-out", str(path), key]) == 0
        return json.loads(path.read_text())

    def test_avail_trace_has_failover_spans(self, tmp_path):
        document = self._run(tmp_path, "avail")
        names = {event["name"]
                 for event in document["traceEvents"]
                 if event.get("ph") == "X"}
        assert {"avail.op", "retry.attempt",
                "avail.host_fallback"} <= names

    def test_obs_trace_is_cluster_merged(self, tmp_path, monkeypatch):
        # the incident at a third of its window: every node still
        # serves, and that is all a merged trace needs
        incident = ROWS["obs"]["incident"]
        monkeypatch.setitem(ROWS["obs"], "incident", replace(
            incident, duration_s=incident.duration_s / 3))
        document = self._run(tmp_path, "obs")
        processes = {event["args"]["name"]
                     for event in document["traceEvents"]
                     if event.get("ph") == "M"
                     and event.get("name") == "process_name"}
        assert {"obs/node0", "obs/node1", "obs/node2"} <= processes

    def test_scale_trace_covers_migration(self, tmp_path, monkeypatch):
        # The spans all come from the traced rebalance row, which
        # keeps its crash, its duration and its node count and offers
        # a quarter of the load; the untraced rows beside it shrink
        # to two sweep points and one 8-node rack point of a tenth of a
        # millisecond (merely building a 64- or 128-node rack costs
        # more than the traced scenario).  CI's conformance job traces
        # the full experiment.
        rows = ROWS["scale"]
        shrunk = {name: replace(rows[name], duration_s=1e-3)
                  for name in ("goodput.1", "goodput.2")}
        shrunk.update((mode, replace(rows[mode], rate=20_000.0))
                      for mode in ("fault_free", "norebalance",
                                   "rebalance"))
        shrunk["rack.8"] = replace(rows["rack.8"], duration_s=1e-4)
        monkeypatch.setitem(ROWS, "scale", shrunk)
        document = self._run(tmp_path, "scale")
        names = {event["name"]
                 for event in document["traceEvents"]
                 if event.get("ph") == "X"}
        assert {"dds.request", "cluster.route",
                "mig.export", "rebalance.pull"} <= names
