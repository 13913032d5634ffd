"""Tests for the sim-time tracer (``repro.obs.trace``)."""

import json

import pytest

from repro.obs import NULL_SPAN, NULL_TRACER, Tracer, merge_chrome_events
from repro.sim import Environment


class TestNullTracer:
    def test_disabled_and_constant(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert NULL_TRACER.begin("x") is NULL_SPAN
        assert NULL_TRACER.instant("x") is None

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("x") as span:
            assert span is NULL_SPAN
            assert span.annotate(a=1) is NULL_SPAN
        span.finish()
        assert NULL_SPAN.attrs == {}

    def test_null_span_swallows_nothing(self):
        # __exit__ returns False: exceptions still propagate.
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("x"):
                raise RuntimeError("boom")


class TestSpanNesting:
    def test_implicit_nesting_within_a_process(self):
        env = Environment()
        tracer = Tracer(env)

        def work():
            with tracer.span("outer", category="compute") as outer:
                yield env.timeout(1.0)
                with tracer.span("inner", category="storage") as inner:
                    yield env.timeout(0.5)
            assert inner.parent_id == outer.span_id
            assert outer.parent_id is None

        env.run(until=env.process(work()))
        names = [span.name for span in tracer.spans]
        assert names == ["inner", "outer"]    # finish order
        outer = tracer.spans[1]
        assert outer.duration_s == pytest.approx(1.5)
        assert {span.category for span in tracer.spans} \
            == {"compute", "storage"}

    def test_interleaved_processes_have_separate_stacks(self):
        env = Environment()
        tracer = Tracer(env)

        def worker(name, delay):
            with tracer.span(name):
                yield env.timeout(delay)
                with tracer.span(f"{name}.child"):
                    yield env.timeout(delay)

        env.process(worker("a", 1.0))
        env.process(worker("b", 1.5))
        env.run(until=10.0)
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["a.child"].parent_id == by_name["a"].span_id
        assert by_name["b.child"].parent_id == by_name["b"].span_id

    def test_begin_is_detached_but_linkable(self):
        env = Environment()
        tracer = Tracer(env)
        handoff = tracer.begin("request", category="network")

        def consumer():
            yield env.timeout(2.0)
            with tracer.span("execute", parent=handoff) as child:
                yield env.timeout(1.0)
            handoff.finish()
            assert child.parent_id == handoff.span_id

        env.run(until=env.process(consumer()))
        assert handoff.finished
        assert handoff.duration_s == pytest.approx(3.0)

    def test_error_annotation_on_exception(self):
        env = Environment()
        tracer = Tracer(env)
        with pytest.raises(KeyError):
            with tracer.span("failing"):
                raise KeyError("nope")
        assert tracer.spans[0].attrs["error"] == "KeyError"

    def test_ancestry_and_children(self):
        tracer = Tracer(Environment())
        root = tracer.begin("root")
        mid = tracer.begin("mid", parent=root)
        leaf = tracer.begin("leaf", parent=mid)
        assert (leaf.parent_id, mid.parent_id, root.parent_id) \
            == (mid.span_id, root.span_id, None)
        # every span records its local root when it opens
        assert leaf._root is mid._root is root._root is root

    def test_ancestry_through_finished_parents(self):
        # The root is recorded at open: a finished span in the middle
        # must not cut a later context off from it.
        tracer = Tracer(Environment(), node="n")
        root = tracer.begin("root")
        mid = tracer.begin("mid", parent=root)
        leaf = tracer.begin("leaf", parent=mid)
        mid.finish()
        assert tracer.context_for(leaf).trace_id == tracer.ref(root)
        root.finish()
        leaf.finish()
        assert tracer.context_for(leaf).trace_id == tracer.ref(root)
        assert leaf._root is root

    def test_deterministic_ids(self):
        def run():
            env = Environment()
            tracer = Tracer(env)

            def work():
                with tracer.span("a"):
                    yield env.timeout(1.0)
                    with tracer.span("b"):
                        yield env.timeout(1.0)

            env.run(until=env.process(work()))
            return [(s.name, s.span_id, s.parent_id, s.start_s, s.end_s)
                    for s in tracer.spans]

        assert run() == run()


def _export(tracer):
    """The tracer's one-node Chrome export."""
    return merge_chrome_events([(tracer.node, tracer)])


class TestExports:
    def _traced(self):
        env = Environment()
        tracer = Tracer(env)

        def work():
            with tracer.span("request", category="network", bytes=100):
                yield env.timeout(1.0)
                with tracer.span("io", category="storage"):
                    yield env.timeout(2.0)
                tracer.instant("decision", category="compute", hit=True)

        env.run(until=env.process(work()))
        return tracer

    def test_chrome_events_shape(self):
        tracer = self._traced()
        events = _export(tracer)
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2
        assert len(instants) == 1
        request = next(e for e in complete if e["name"] == "request")
        io = next(e for e in complete if e["name"] == "io")
        assert request["cat"] == "network"
        assert request["dur"] == pytest.approx(3.0 * 1e6)
        assert io["args"]["parent_id"] == request["args"]["span_id"]
        assert io["tid"] == request["tid"]    # same causal tree/track
        assert request["args"]["bytes"] == 100

    def test_write_chrome_round_trips(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        count = tracer.write_chrome(str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        # 2 spans + 1 instant + process_name + 1 track's thread_name
        assert len(events) == count == 5
        assert document["displayTimeUnit"] == "ns"

    def test_metadata_names_process_and_tracks(self):
        tracer = self._traced()
        events = _export(tracer)
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata[0]["name"] == "process_name"
        assert metadata[0]["args"]["name"] == tracer.node
        tracks = [e for e in metadata if e["name"] == "thread_name"]
        assert len(tracks) == 1
        assert tracks[0]["args"]["name"].startswith("request#")
        assert tracks[0]["tid"] == 1

    def test_flame_summary_paths(self):
        tracer = self._traced()
        text = tracer.flame_summary()
        assert "request;io" in text
        assert "span path" in text

    def test_empty_tracer_exports(self, tmp_path):
        tracer = Tracer(Environment())
        assert _export(tracer) == []
        assert "no spans" in tracer.flame_summary()
        assert tracer.write_chrome(str(tmp_path / "t.json")) == 0

    def test_merge_leaves_an_unknown_span_parent_unlinked(self):
        # the null span (what an untraced caller hands over) names no
        # parent, even inside another span's ``with`` body
        tracer = Tracer(Environment())
        with tracer.span("outer"):
            with tracer.span("orphan", parent=NULL_SPAN) as orphan:
                pass
        assert orphan.parent_id is None and orphan._root is orphan
        merged = merge_chrome_events([("a", tracer)])
        [event] = [e for e in merged if e["name"] == "orphan"]
        assert event["args"] == {"span_id": 1}    # finished first
        assert event["tid"] == 2    # its own track, opened second

    def test_merge_leaves_an_unknown_instant_parent_unlinked(self):
        tracer = self._traced()
        tracer.instants.append((4.0, "stray", "app", 999, {"n": 1}))
        merged = merge_chrome_events([("a", tracer)])
        [stray] = [e for e in merged if e["name"] == "stray"]
        assert stray["args"] == {"n": 1} and stray["tid"] == 0
        [decision] = [e for e in merged if e["name"] == "decision"]
        [request] = [e for e in merged if e["name"] == "request"]
        assert decision["args"]["parent_id"] == request["args"]["span_id"]

    def test_unfinished_span_clamped_to_now(self):
        env = Environment()
        tracer = Tracer(env)

        def work():
            tracer.begin("open-ended")
            yield env.timeout(1.0)

        env.run(until=env.process(work()))
        env.run(until=5.0)
        [event] = [e for e in _export(tracer) if e["ph"] == "X"]
        assert event["dur"] == pytest.approx(5.0 * 1e6)
