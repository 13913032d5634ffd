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
from repro.obs.attr import (AttributionCollector, SpanTable,
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


@pytest.fixture(scope="module")
def tracers():
    """The traced small cluster run's ``(node, tracer)`` pairs."""
    plane, _latencies = _small_cluster_run(tracing=True)
    return plane.tracers()


class TestGoldenDigests:
    """sha256 of both exports, captured at the parent commit."""

    MERGED = ("6bb642f7cce0fb7638d9dc8e6512a03c"
              "53cc1b07f2b3fef59f35bac39d645770")
    REPORT = ("c02e4343d83a6af5a128ebcf0415f671"
              "b88bc95919f6949dc3098510d3e704ab")
    #: one node's export of :func:`_three_requests`
    SINGLE = ("c711e8bc3897f36603026574937c9b1b"
              "0f4831262e835cde18d39d97f7c1cc83")

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

    def test_single_node_export(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        _three_requests(env, tracer)
        events = merge_chrome_events([("node0", tracer)])
        assert {event["pid"] for event in events} == {1}
        # spans are numbered in all_spans() order, which differs from
        # creation order here: the export renumbers them
        assert [span.span_id for span in tracer.all_spans()] \
            != sorted(span.span_id for span in tracer.all_spans())
        assert _sha256(events) == self.SINGLE


# -- the attribution sweep against its predecessor --------------------------


def _oracle_tree(tracers):
    """The span tree the old ``SpanIndex`` resolved, rebuilt plainly.

    Returns ``(spans, children, roots)``: ``(node, span_id)`` -> span
    (first one handed wins), each key's children's keys, and the
    finished parentless ``dds.request`` keys, sorted.  A span's parent
    is its local ``parent_id`` if that node recorded it, else the span
    a well-formed ``remote_parent`` ref names, else none.
    """
    spans = {}
    for node, tracer in tracers:
        for span in tracer.all_spans():
            spans.setdefault((node, span.span_id), span)

    def parent_key(key):
        span = spans[key]
        if (key[0], span.parent_id) in spans:
            return key[0], span.parent_id
        remote = span.attrs.get("remote_parent")
        if isinstance(remote, str) and ":" in remote:
            peer, _, span_id = remote.rpartition(":")
            try:
                remote_key = (peer, int(span_id))
            except ValueError:
                return None
            if remote_key in spans:
                return remote_key
        return None

    children = {}
    roots = []
    for key in spans:
        parent = parent_key(key)
        if parent is not None:
            children.setdefault(parent, []).append(key)
        elif spans[key].name == "dds.request" and spans[key].finished:
            roots.append(key)
    return spans, children, sorted(roots)


def _oracle_segments(tree, root_key):
    """The per-interval ``max`` sweep ``attribute_request`` replaced."""
    spans, children, _roots = tree
    root = spans[root_key]
    window_start, window_end = root.start_s, root.end_s
    members = []          # (start, end, depth, node, span_id, category)
    stack = [(root_key, 0)]
    while stack:
        key, depth = stack.pop()
        stack.extend((child, depth + 1) for child in children.get(key, ()))
        span = spans[key]
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
    return segments, len(members), len({m[3] for m in members})


class _SpanList:
    """A tracer as far as :class:`SpanTable` can tell."""

    def __init__(self, spans):
        self._spans = spans

    def all_spans(self):
        return self._spans


_NODES = ("a", "b")
_NAMES = ("dds.offload", "ssd.read", "tcp.msg_tx", "se.read",
          "cluster.route", "cluster.shard_host", "se.rings.sq.hop",
          "ce.kernel.crc32", "dds.request", "odd.name")
#: what a span names as its parent, besides an earlier span (the
#: pick's fifth) or nothing: a later span's id, a ``parent=`` cycle
#: with the span created next, or a ``remote_parent`` ref that is
#: malformed or names a node outside the set
_LATER, _CYCLE, _BAD_REF, _NO_NODE = range(4)

#: (node, parent pick, start tick, length in ticks, open, name, odd
#: link or None, handed over open first): a coarse time grid makes
#: tied starts, zero-length spans and children that outlive their
#: root common rather than rare
_span_rows = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 10**6),
              st.integers(0, 12), st.integers(0, 8), st.booleans(),
              st.sampled_from(_NAMES),
              st.one_of(st.none(), st.integers(_LATER, _NO_NODE)),
              st.booleans()),
    min_size=1, max_size=24)


def _forest(rows, tick):
    """Per-node span lists: a finished request root, then ``rows``.

    Returns the tracers and the spans to hand over open first: those
    are open (and unadopted) until :func:`_finish_late` runs.
    """
    per_node = {node: [] for node in _NODES}
    placed = []           # (node, span) in creation order
    late = []             # (span, end_s, attrs to adopt at the end)
    rows = [(0, 0, 2, 6, False, "dds.request", None, False)] + rows
    for (node_pick, parent_pick, start, length, is_open, name, odd,
         handover) in rows:
        node = _NODES[node_pick]
        spans = per_node[node]
        span_id = len(spans) + 1
        attrs = {"device": "dpu_asic"} if name.startswith("ce.") else {}
        parent_id = None
        if odd == _LATER:
            parent_id = span_id + 2 + parent_pick % 3
        elif odd == _CYCLE:
            parent_id = span_id + 1       # the next span names this one
        elif odd == _BAD_REF:
            attrs["remote_parent"] = ("a:x", "b", ":1", "a:")[
                parent_pick % 4]
        elif odd == _NO_NODE:
            attrs["remote_parent"] = f"z:{1 + parent_pick % 3}"
        elif placed and parent_pick % 5:      # one in five is a root
            parent_node, parent = placed[parent_pick % len(placed)]
            if parent_node == node:
                parent_id = parent.span_id
            else:
                attrs["remote_parent"] = \
                    f"{parent_node}:{parent.span_id}"
        if spans and spans[-1].parent_id == span_id:    # close a cycle
            parent_id = spans[-1].span_id
        span = Span(None, name, "compute", span_id, parent_id,
                    start * tick, attrs)
        if not is_open:
            span.end_s = (start + length) * tick
        if handover:
            adopt = {}
            if "remote_parent" in attrs:      # adopted after a scrape
                adopt = {"remote_parent": attrs.pop("remote_parent")}
            late.append((span, span.end_s, adopt))
            span.end_s = None
        spans.append(span)
        placed.append((node, span))
    tracers = [(node, _SpanList(spans)) for node, spans in per_node.items()]
    return tracers, late


def _finish_late(late):
    for span, end_s, adopt in late:
        span.end_s = end_s
        span.attrs.update(adopt)


def _feed(tracers, late):
    """Every span, then the late ones again once finished: the request
    roots each :meth:`SpanTable.extend` found, in order."""
    table = SpanTable()
    found = [table.extend((node, tracer.all_spans())
                          for node, tracer in tracers)]
    _finish_late(late)
    found.append(table.extend(
        (node, [span for span, _end, _adopt in late
                if span in tracer.all_spans()])
        for node, tracer in tracers))
    return table, [(node, root) for roots in found
                   for node, spans in roots.items() for root in spans]


class TestSweepMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(rows=_span_rows, tick=st.sampled_from((1.0, 0.1, 1e-6 / 3)))
    def test_same_segments_in_the_same_order(self, rows, tick):
        tracers, late = _forest(rows, tick)
        table, roots = _feed(tracers, late)
        tree = _oracle_tree(tracers)
        keys = [(node, root.span_id) for node, root in roots]
        assert sorted(keys) == tree[2]
        assert len(set(keys)) == len(keys)
        assert ("a", 1) in keys
        for node, root in roots:
            attribution = attribute_request(table, node, root)
            segments, members, nodes = _oracle_segments(
                tree, (node, root.span_id))
            # bit-identical sums, and the same insertion order: the
            # report's JSON lists categories in first-charged order
            assert list(attribution.segments.items()) \
                == list(segments.items())
            assert (attribution.spans, attribution.nodes_touched) \
                == (members, nodes)

    def test_every_odd_link_in_one_forest(self):
        # b's request is handed over open and unadopted, then adopted
        # under a's root; a's other spans link oddly
        rows = [(1, 1, 3, 2, False, "dds.request", None, True)]
        rows += [(0, 1, 3, 1, False, "ssd.read", odd, False)
                 for odd in (_LATER, _CYCLE, _BAD_REF, _NO_NODE)]
        tracers, late = _forest(rows, 1.0)
        root, later, cycle, bad_ref, no_node = tracers[0][1].all_spans()
        assert later.parent_id == no_node.span_id > later.span_id
        assert (cycle.parent_id, bad_ref.parent_id) \
            == (bad_ref.span_id, cycle.span_id)
        assert (bad_ref.attrs["remote_parent"], no_node.attrs) \
            == ("b", {"remote_parent": "z:2"})
        [(remote, _end, adopt)] = late
        assert adopt == {"remote_parent": "a:1"}
        table, roots = _feed(tracers, late)
        assert roots == [("a", root)]
        assert table._adopted == {"a": {1: [("b", remote)]}}
        attribution = attribute_request(table, "a", root)
        assert (attribution.spans, attribution.nodes_touched) == (2, 2)

    def test_open_cross_node_child_outliving_the_root(self):
        tracers, late = _forest(
            [(1, 1, 4, 0, True, "ssd.read", None, False),
             (1, 3, 4, 20, False, "tcp.msg_tx", None, False)], 1.0)
        assert late == []
        table, roots = _feed(tracers, late)
        root, child = table.spans["a"][1], table.spans["b"][1]
        assert roots == [("a", root)]
        assert table._adopted == {"a": {1: [("b", child)]}}
        attribution = attribute_request(table, "a", root)
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


class _ScrapedAt:
    """A finished run's tracer as a scrape at ``t_s`` saw it: spans
    finished by then (a prefix of finish order), and the spans running
    then, which :func:`_scrape` reopens for the call."""

    def __init__(self, tracer, t_s):
        self.spans = [span for span in tracer.spans if span.end_s <= t_s]
        self.running = sorted(
            (span for span in tracer.all_spans()[len(self.spans):]
             if span.start_s <= t_s), key=lambda span: span.span_id)

    def open_spans(self):
        return self.running


def _scrape(collector, tracers, t_s):
    class Plane:
        def tracers(self):
            return seen

    seen = [(node, _ScrapedAt(tracer, t_s)) for node, tracer in tracers]
    ends = [(span, span.end_s) for _node, view in seen
            for span in view.running]
    try:
        for span, _end in ends:
            span.end_s = None
        collector.collect(Plane())
    finally:
        for span, end in ends:
            span.end_s = end


class TestScrapesMatchOneShot:
    @settings(max_examples=12, deadline=None)
    @given(cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_k_scrapes_attribute_what_build_report_does(self, tracers,
                                                        cuts):
        """A finished run fed to the collector over ``len(cuts) + 1``
        scrapes gives build_report's requests, each in the scrape that
        saw its root finish, node by node, in finish order."""
        horizon = max(span.end_s for _node, tracer in tracers
                      for span in tracer.spans)
        times = sorted(cut * horizon for cut in cuts) + [horizon]
        collector = AttributionCollector()
        for t_s in times:
            _scrape(collector, tracers, t_s)
        one_shot = build_report(tracers)
        assert len(one_shot.requests) > 40
        finish_rank = {(node, span.span_id): (n, k)
                       for n, (node, tracer) in enumerate(tracers)
                       for k, span in enumerate(tracer.spans)}

        def scraped_order(request):
            key = (request.node, request.span_id)
            seen = next(i for i, t_s in enumerate(times)
                        if request.end_s <= t_s)
            return seen, finish_rank[key]

        expected = sorted(one_shot.requests, key=scraped_order)
        # to_dict holds the segments in first-charged order
        assert [[*r.to_dict().items(), *r.segments.items()]
                for r in collector.requests] \
            == [[*r.to_dict().items(), *r.segments.items()]
                for r in expected]


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
    def test_each_export_builds_fresh_events(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        _three_requests(env, tracer)
        before = json.dumps(merge_chrome_events([("node0", tracer)]))
        for event in merge_chrome_events([("node0", tracer)]):
            event["args"]["scribble"] = True
        assert json.dumps(merge_chrome_events([("node0", tracer)])) \
            == before

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
