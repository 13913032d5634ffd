"""Pins for "tracing got cheaper, its output did not change".

The export, the attribution sweep and the span index were rewritten
for host speed; these tests hold their *results* to what the slower
code produced: golden digests captured at the commit before the
rewrite (8f232ed), the old per-interval ``max`` sweep kept here as the
oracle, and the structural properties the shared Chrome-event builder
must keep.
"""

import gc
import hashlib
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (Cluster, ClusterClient, encode_shard_read,
                           encode_shard_write, stable_hash)
from repro.core import AdmissionController, TenantRegistry
from repro.faults import FaultInjector, FaultPlan
from repro.obs import (ClusterTelemetry, Tracer, build_report,
                       merge_chrome_events)
from repro.obs.attr import (AttributionCollector, SpanIndex,
                            attribute_request, categorize)
from repro.obs.trace import Span
from repro.sim import Environment
from repro.units import PAGE_SIZE


def _small_cluster_run(tracing, requests=40):
    """3 nodes, admission on, 30 % stale routing, node1's DPU dies.

    Two clients send ``requests`` shard reads/writes each; the stale
    ones are forwarded DPU-to-DPU (``remote_parent``), node1's crash
    at 1 ms leaves spans open and sends its shards down the host path
    (``cluster.shard_host``), and every TCP message leaves a
    ``tcp.msg_rx`` instant.  Returns the plane and the per-request
    latencies (None = never answered).
    """
    env = Environment()
    plan = FaultPlan(seed=5).cpu_crash(1.0e-3, 1.0,
                                       site="cpu.node1.dpu.cpu")
    plane = ClusterTelemetry(tracing=tracing, name="t",
                             scrape_interval_s=2.5e-4)
    cluster = Cluster(env, 3, injector=FaultInjector(env, plan),
                      telemetry=plane)
    for node in cluster.nodes:
        node.dds.admission = AdmissionController(
            env, TenantRegistry(env),
            registry=plane.node(node.name).metrics, max_queue=128,
            service_rate_ops=150_000.0, slo_target_s=1.5e-3,
            name=f"admission.{node.name}")
    clients = [ClusterClient(cluster, f"client{i}", home=home,
                             stale_fraction=0.3,
                             stamp_deadline_s=1.5e-3)
               for i, home in enumerate(("node0", "node2"))]

    def dial():
        for client in clients:
            yield from client.connect_all()

    env.run(until=env.process(dial()))
    n_shards = cluster.shardmap.n_shards
    pages = cluster.shard_bytes // PAGE_SIZE

    def load(client, index):
        for k in range(requests):
            tag = f"{index}:{k}"
            shard = stable_hash(f"sh:{tag}") % n_shards
            offset = (stable_hash(f"of:{tag}") % pages) * PAGE_SIZE
            encode = encode_shard_read if k % 2 else encode_shard_write
            client.submit(encode(shard, offset), shard, tag=k,
                          offset=offset)
            yield env.timeout(5.0e-5)

    for index, client in enumerate(clients):
        env.process(load(client, index))
    env.run(until=env.now + requests * 5.0e-5 + 2.5e-3)
    latencies = [r.latency if r.completed and not r.failed else None
                 for client in clients for r in client.requests]
    return plane, latencies


def _sha256(document) -> str:
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


class TestGoldenDigests:
    """sha256 of both exports, captured at the parent commit."""

    MERGED = ("6bb642f7cce0fb7638d9dc8e6512a03c"
              "53cc1b07f2b3fef59f35bac39d645770")
    REPORT = ("c02e4343d83a6af5a128ebcf0415f671"
              "b88bc95919f6949dc3098510d3e704ab")

    @pytest.fixture(scope="class")
    def tracers(self):
        plane, _latencies = _small_cluster_run(tracing=True)
        return plane.tracers()

    def test_scenario_covers_the_hard_cases(self, tracers):
        events = merge_chrome_events(tracers)
        names = {event["name"] for event in events}
        assert {"cluster.route", "cluster.shard_host"} <= names
        assert any(event["ph"] == "i" and event["name"] == "tcp.msg_rx"
                   for event in events)
        assert any("remote_parent" in event["args"]
                   for event in events)
        assert any(tracer.open_spans() for _node, tracer in tracers)

    def test_merged_chrome_events(self, tracers):
        events = merge_chrome_events(tracers)
        # TCP connection ids come from a process-wide counter
        # (netstack.tcp._conn_ids): number them by first appearance,
        # or the digest depends on which tests ran before this one
        ranks = {}
        for event in events:
            args = event["args"]
            if "cid" in args:
                args["cid"] = ranks.setdefault(args["cid"], len(ranks))
        assert len(ranks) > 4
        assert _sha256(events) == self.MERGED

    def test_attribution_report(self, tracers):
        report = build_report(tracers)
        assert report.requests
        document = dict(report.to_dict(), request_detail=[
            request.to_dict() for request in report.requests])
        assert _sha256(document) == self.REPORT


# -- the attribution sweep against its predecessor --------------------------


def _oracle_segments(index, root_key):
    """The per-interval ``max`` sweep ``attribute_request`` replaced."""
    root = index.spans[root_key]
    window_start, window_end = root.start_s, root.end_s
    members = []          # (start, end, depth, node, span_id, category)
    for key, depth in index.subtree(root_key):
        span = index.spans[key]
        end = span.end_s if span.end_s is not None else window_end
        start = min(max(span.start_s, window_start), window_end)
        end = min(max(end, start), window_end)
        category = "queue" if depth == 0 else categorize(span)
        members.append((start, end, depth, key[0], key[1], category))
    boundaries = sorted({edge for start, end, *_ in members
                         for edge in (start, end)})
    segments = {}
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi <= lo:
            continue
        winner = max(
            (m for m in members if m[0] <= lo and m[1] >= hi),
            key=lambda m: (m[2], m[0], m[3], m[4]),
        )
        category = winner[5]
        segments[category] = segments.get(category, 0.0) + (hi - lo)
    return segments


class _SpanList:
    """A tracer as far as :class:`SpanIndex` can tell."""

    def __init__(self, spans):
        self._spans = spans

    def all_spans(self):
        return self._spans


_NODES = ("a", "b")
_NAMES = ("dds.offload", "ssd.read", "tcp.msg_tx", "se.read",
          "cluster.route", "cluster.shard_host", "se.rings.sq.hop",
          "ce.kernel.crc32", "dds.request", "odd.name")

#: (node, parent pick, start tick, length in ticks, open, name): a
#: coarse time grid makes tied starts, zero-length spans and children
#: that outlive their root common rather than rare
_span_rows = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 10**6),
              st.integers(0, 12), st.integers(0, 8), st.booleans(),
              st.sampled_from(_NAMES)),
    min_size=1, max_size=24)


def _forest(rows, tick):
    """Per-node span lists: a finished request root, then ``rows``."""
    per_node = {node: [] for node in _NODES}
    placed = []           # (node, span) in creation order
    rows = [(0, 0, 2, 6, False, "dds.request")] + rows
    for node_pick, parent_pick, start, length, is_open, name in rows:
        node = _NODES[node_pick]
        spans = per_node[node]
        attrs = {"device": "dpu_asic"} if name.startswith("ce.") else {}
        parent_id = None
        if placed and parent_pick % 5:        # one in five is a root
            parent_node, parent = placed[parent_pick % len(placed)]
            if parent_node == node:
                parent_id = parent.span_id
            else:
                attrs["remote_parent"] = \
                    f"{parent_node}:{parent.span_id}"
        span = Span(None, name, "compute", len(spans) + 1, parent_id,
                    start * tick, attrs)
        if not is_open:
            span.end_s = (start + length) * tick
        spans.append(span)
        placed.append((node, span))
    return [(node, _SpanList(spans)) for node, spans in per_node.items()]


class TestSweepMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(rows=_span_rows, tick=st.sampled_from((1.0, 0.1, 1e-6 / 3)))
    def test_same_segments_in_the_same_order(self, rows, tick):
        index = SpanIndex(_forest(rows, tick))
        roots = index.request_roots()
        assert ("a", 1) in roots
        for root_key in roots:
            attribution = attribute_request(index, root_key)
            # bit-identical sums, and the same insertion order: the
            # report's JSON lists categories in first-charged order
            assert list(attribution.segments.items()) \
                == list(_oracle_segments(index, root_key).items())

    def test_open_cross_node_child_outliving_the_root(self):
        tracers = _forest([(1, 1, 4, 0, True, "ssd.read"),
                           (1, 3, 4, 20, False, "tcp.msg_tx")], 1.0)
        index = SpanIndex(tracers)
        assert index.parent_key(("b", 1)) == ("a", 1)
        assert index._children[("a", 1)] == [("b", 1)]
        attribution = attribute_request(index, ("a", 1))
        assert attribution.nodes_touched == 2
        assert list(attribution.segments.items()) \
            == [("queue", 2.0), ("nic_wire", 4.0)]


class TestOnlineIndex:
    def test_root_adopted_after_a_scrape_saw_it_open(self):
        """The router adopts a context one UDF parse after ``begin``.

        A scrape can fall in between and index the remote request
        while it still looks like a root; the collector's long-lived
        index has to re-link it once it carries ``remote_parent``.
        """
        env = Environment()
        origin = Tracer(env, node="n0")
        remote = Tracer(env, node="n1")
        tracers = [("n0", origin), ("n1", remote)]

        class Plane:
            def tracers(self):
                return tracers

        collector = AttributionCollector()

        def work():
            with origin.span("dds.request", category="network"):
                with origin.span("cluster.route",
                                 category="network") as route:
                    served = remote.begin("dds.request",
                                          category="network")
                    yield env.timeout(1e-5)
                    collector.collect(Plane())   # sees it parentless
                    remote.adopt(served, origin.context_for(route))
                    with remote.span("ssd.read", category="storage",
                                     parent=served):
                        yield env.timeout(3e-5)
                    served.finish()
                yield env.timeout(1e-5)

        env.run(until=env.process(work()))
        collector.collect(Plane())
        one_shot = build_report(tracers)
        assert [r.to_dict() for r in collector.requests] \
            == [r.to_dict() for r in one_shot.requests]
        assert len(collector.requests) == 1
        assert collector.requests[0].nodes_touched == 2


# -- the shared Chrome-event builder ----------------------------------------


def _three_requests(env, tracer):
    def request(k):
        root = tracer.begin("dds.request", category="network", k=k)
        yield env.timeout(1e-5 * (3 - k))       # finish in reverse
        with tracer.span("ssd.read", category="storage", parent=root):
            tracer.instant("cache.miss", category="storage")
            yield env.timeout(2e-5)
        root.finish()

    for k in range(3):
        env.process(request(k))
    env.run()
    tracer.begin("wedged", category="storage")       # stays open


class TestOneBuilder:
    def test_single_tracer_export_is_the_pid_1_slice_of_the_merge(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        _three_requests(env, tracer)
        merged = merge_chrome_events([("node0", tracer)])
        assert {event["pid"] for event in merged} == {1}
        # the merge numbers spans in all_spans() order; finish order
        # differs from creation order here, so this is a real remap
        remap = {span.span_id: i for i, span in
                 enumerate(tracer.all_spans(), start=1)}
        assert any(local != renamed for local, renamed in remap.items())
        local = tracer.to_chrome_events()
        for event in local:
            args = event["args"]
            for key in ("span_id", "parent_id"):
                if key in args:
                    args[key] = remap[args[key]]
        # json text, not ==: key order is part of the contract
        assert json.dumps(local) == json.dumps(merged)

    def test_each_export_builds_fresh_events(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        _three_requests(env, tracer)
        before = json.dumps(tracer.to_chrome_events())
        for event in merge_chrome_events([("node0", tracer)]):
            event["args"]["scribble"] = True
        assert json.dumps(tracer.to_chrome_events()) == before

    def test_integer_parent_cycle_terminates(self):
        tracer = Tracer(Environment(), node="node0")
        first = tracer.begin("a", parent=2)       # 1 -> 2 -> 1
        second = tracer.begin("b", parent=1)
        tracer.begin("c", parent=second).finish()
        first.finish()
        spans = [event for event in tracer.to_chrome_events()
                 if event["ph"] == "X"]
        assert [event["name"] for event in spans] == ["a", "b", "c"]
        merged = merge_chrome_events([("node0", tracer)])
        assert sum(event["ph"] == "X" for event in merged) == 3

    def test_integer_parent_naming_a_later_span_shares_its_track(self):
        tracer = Tracer(Environment(), node="node0")
        tracer.begin("early", parent=2).finish()
        tracer.begin("late").finish()
        events = tracer.to_chrome_events()
        assert {event["tid"] for event in events if event["ph"] == "X"} \
            == {1}
        assert [event["args"]["name"] for event in events
                if event["name"] == "thread_name"] == ["late#2"]

    def test_finishing_out_of_lifo_order_keeps_the_stack(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.finish()                    # not the top of the stack
        under_inner = tracer.span("x")
        assert under_inner.parent_id == inner.span_id
        under_inner.finish()
        inner.finish()
        assert tracer._stacks == {}
        assert tracer.span("fresh").parent_id is None
        assert [span.name for span in tracer.spans] \
            == ["outer", "x", "inner"]


def test_finished_spans_do_not_keep_their_process_alive():
    # 10 k processes (with generator and timeout each) stayed
    # reachable through the kept spans of a cluster_traced run, for
    # the collector to walk on every full pass
    env = Environment()
    tracer = Tracer(env, node="node0")

    def work():
        with tracer.span("ssd.read", category="storage"):
            yield env.timeout(1e-6)

    generator = work()
    alive = weakref.ref(generator)      # a Process takes no weakref
    env.process(generator)
    del generator
    env.run()
    gc.collect()
    assert len(tracer.spans) == 1
    assert alive() is None


# -- hostbench Finding 1 -----------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="hostbench Finding 1: with a real tracer a connection "
           "sends through TcpConnection._send_message_traced, the "
           "unbatched sender, which shifts segment timing by "
           "microseconds; the change that removes that fork makes "
           "this pass and has to delete this marker")
def test_tracing_does_not_move_request_latencies():
    _plane, traced = _small_cluster_run(tracing=True)
    _plane, untraced = _small_cluster_run(tracing=False)
    assert len(traced) == len(untraced) == 80
    assert traced == untraced
