"""Distributed trace context: wire form, adoption, multi-node merge."""

import json

from repro.obs import (
    TraceContext,
    Tracer,
    merge_chrome_events,
    write_merged_chrome,
)
from repro.sim import Environment


class TestTraceContextWire:
    def test_round_trip(self):
        context = TraceContext("node0:3", "node0:7", "node0")
        again = TraceContext.from_wire(context.to_wire())
        assert again == context
        assert again.to_wire() == {"id": "node0:3",
                                   "parent": "node0:7",
                                   "origin": "node0"}

    def test_from_wire_rejects_junk(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire("not-a-dict") is None
        assert TraceContext.from_wire({}) is None
        assert TraceContext.from_wire({"id": 3, "parent": "a:1"}) is None
        assert TraceContext.from_wire({"id": "a:1", "parent": 7}) is None

    def test_origin_defaults_empty(self):
        context = TraceContext.from_wire({"id": "a:1", "parent": "a:2"})
        assert context is not None
        assert context.origin == ""

    def test_as_attrs_uses_reserved_keys(self):
        context = TraceContext("a:1", "a:2", "a")
        assert context.as_attrs() == {"trace_id": "a:1",
                                      "remote_parent": "a:2",
                                      "origin": "a"}

    def test_wire_form_is_json_serializable(self):
        context = TraceContext("a:1", "a:2", "a")
        assert json.loads(json.dumps(context.to_wire())) \
            == context.to_wire()


class TestContextMinting:
    def test_context_for_local_root(self):
        tracer = Tracer(Environment(), node="node0")
        root = tracer.begin("request")
        context = tracer.context_for(root)
        assert context.trace_id == f"node0:{root.span_id}"
        assert context.parent_ref == f"node0:{root.span_id}"
        assert context.origin == "node0"

    def test_context_for_child_keeps_root_trace_id(self):
        tracer = Tracer(Environment(), node="node0")
        root = tracer.begin("request")
        hop = tracer.begin("route", parent=root)
        context = tracer.context_for(hop)
        assert context.trace_id == f"node0:{root.span_id}"
        assert context.parent_ref == f"node0:{hop.span_id}"

    def test_adopt_annotates_and_multi_hop_keeps_one_id(self):
        # node0 originates; node1 adopts, then mints a context of its
        # own for a second hop — the trace id must survive unchanged.
        origin = Tracer(Environment(), node="node0")
        root0 = origin.begin("request")
        outbound = origin.context_for(origin.begin("route",
                                                   parent=root0))
        middle = Tracer(Environment(), node="node1")
        root1 = middle.adopt(middle.begin("request"), outbound)
        assert root1.attrs["trace_id"] == f"node0:{root0.span_id}"
        assert root1.attrs["origin"] == "node0"
        hop1 = middle.begin("route", parent=root1)
        second = middle.context_for(hop1)
        assert second.trace_id == f"node0:{root0.span_id}"
        assert second.origin == "node0"
        assert second.parent_ref == f"node1:{hop1.span_id}"

    def test_adopt_none_is_a_no_op(self):
        tracer = Tracer(Environment(), node="node0")
        span = tracer.begin("request")
        assert tracer.adopt(span, None) is span
        assert "remote_parent" not in span.attrs


def _two_node_trace():
    """node0 forwards under a hop span; node1 adopts the context."""
    env = Environment()
    node0 = Tracer(env, node="node0")
    node1 = Tracer(env, node="node1")
    root0 = node0.begin("request")
    hop = node0.begin("route", parent=root0)
    context = node0.context_for(hop)
    root1 = node1.adopt(node1.begin("request"), context)
    io = node1.begin("io", parent=root1)
    for span in (io, root1, hop, root0):
        span.finish()
    return node0, node1, hop, root1


class TestMerge:
    def test_span_ids_remapped_into_one_namespace(self):
        node0, node1, _hop, _root1 = _two_node_trace()
        merged = merge_chrome_events([("node0", node0),
                                      ("node1", node1)])
        spans = [e for e in merged if e["ph"] == "X"]
        ids = [e["args"]["span_id"] for e in spans]
        assert len(ids) == len(set(ids)) == 4

    def test_remote_parent_resolved_cross_process(self):
        node0, node1, hop, _root1 = _two_node_trace()
        merged = merge_chrome_events([("node0", node0),
                                      ("node1", node1)])
        spans = {(e["pid"], e["name"]): e for e in merged
                 if e["ph"] == "X"}
        hop_event = spans[(1, "route")]
        adopted = spans[(2, "request")]
        assert adopted["args"]["parent_id"] \
            == hop_event["args"]["span_id"]

    def test_no_dangling_parents(self):
        node0, node1, _hop, _root1 = _two_node_trace()
        merged = merge_chrome_events([("node0", node0),
                                      ("node1", node1)])
        spans = [e for e in merged if e["ph"] == "X"]
        known = {e["args"]["span_id"] for e in spans}
        for event in spans:
            parent = event["args"].get("parent_id")
            assert parent is None or parent in known

    def test_one_pid_per_node_with_names(self):
        node0, node1, _hop, _root1 = _two_node_trace()
        merged = merge_chrome_events([("node0", node0),
                                      ("node1", node1)])
        names = {e["pid"]: e["args"]["name"] for e in merged
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"}
        assert names == {1: "node0", 2: "node1"}

    def test_mapping_input_sorted_by_node(self):
        node0, node1, _hop, _root1 = _two_node_trace()
        merged = merge_chrome_events({"node1": node1,
                                      "node0": node0})
        first_meta = next(e for e in merged
                          if e.get("name") == "process_name")
        assert first_meta["args"]["name"] == "node0"

    def test_unresolvable_remote_parent_left_alone(self):
        tracer = Tracer(Environment(), node="node1")
        span = tracer.adopt(tracer.begin("request"),
                            TraceContext("ghost:9", "ghost:9",
                                         "ghost"))
        span.finish()
        [event] = [e for e in merge_chrome_events([("node1", tracer)])
                   if e["ph"] == "X"]
        assert "parent_id" not in event["args"]
        assert event["args"]["remote_parent"] == "ghost:9"

    def test_write_merged_chrome(self, tmp_path):
        node0, node1, _hop, _root1 = _two_node_trace()
        path = tmp_path / "cluster.json"
        count = write_merged_chrome(str(path),
                                    [("node0", node0),
                                     ("node1", node1)])
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count > 4
