"""Tests for the latency attribution engine (``repro.obs.attr``)."""

import random

import pytest

from repro.obs import Tracer
from repro.obs.attr import (
    CATEGORIES,
    AttributionCollector,
    SpanTable,
    attribute_request,
    build_report,
    categorize,
)
from repro.obs.attr.online import WINDOW
from repro.sim import Environment


def _table(tracers):
    """A :class:`SpanTable` over ``tracers`` and its request roots."""
    table = SpanTable()
    roots = table.extend((node, tracer.all_spans())
                         for node, tracer in tracers)
    return table, [(node, root) for node, found in roots.items()
                   for root in found]


class _FakeSpan:
    def __init__(self, name, category="app", attrs=None):
        self.name = name
        self.category = category
        self.attrs = attrs or {}


class TestCategorize:
    def test_kernel_spans_follow_the_device_attr(self):
        assert categorize(_FakeSpan(
            "ce.kernel.compress", "compute",
            {"device": "dpu_asic"})) == "asic"
        assert categorize(_FakeSpan(
            "ce.kernel.crc32", "compute",
            {"device": "host_cpu"})) == "host_cpu"
        assert categorize(_FakeSpan(
            "ce.kernel.filter", "compute",
            {"device": "dpu_cpu"})) == "dpu_arm"

    def test_pcie_peer_kernels_charge_pcie(self):
        assert categorize(_FakeSpan(
            "ce.fused.pipeline", "compute",
            {"device": "pcie_gpu"})) == "pcie"

    def test_ring_hops_are_queue_wait(self):
        assert categorize(_FakeSpan("se.req.hop", "ring")) == "queue"

    def test_name_rules(self):
        assert categorize(_FakeSpan("cluster.route",
                                    "network")) == "forward"
        assert categorize(_FakeSpan("dds.offload",
                                    "compute")) == "dpu_arm"
        assert categorize(_FakeSpan("tcp.msg_tx",
                                    "network")) == "nic_wire"
        assert categorize(_FakeSpan("ssd.read",
                                    "storage")) == "ssd"
        assert categorize(_FakeSpan("retry.attempt",
                                    "fault")) == "retry"
        assert categorize(_FakeSpan("se.dpu_read",
                                    "storage")) == "dpu_arm"
        assert categorize(_FakeSpan("se.read",
                                    "storage")) == "host_cpu"

    def test_category_fallback_then_other(self):
        assert categorize(_FakeSpan("custom.thing",
                                    "compute")) == "dpu_arm"
        assert categorize(_FakeSpan("custom.thing",
                                    "network")) == "nic_wire"
        assert categorize(_FakeSpan("custom.thing",
                                    "mystery")) == "other"

    def test_every_result_is_a_known_category(self):
        for name, cat in [("ce.kernel.x", "compute"),
                          ("cluster.shard_dpu", "storage"),
                          ("journal.append", "storage"),
                          ("whatever", "client")]:
            assert categorize(_FakeSpan(name, cat)) in CATEGORIES


def _run_simple_request(env, tracer):
    """One request: 1e-4 queue, 2e-4 dpu_arm, 3e-4 ssd, 5e-5 queue."""

    def work():
        with tracer.span("dds.request", category="network",
                         shard=3, path="local"):
            yield env.timeout(1e-4)
            with tracer.span("dds.offload", category="compute"):
                yield env.timeout(2e-4)
            with tracer.span("ssd.read", category="storage"):
                yield env.timeout(3e-4)
            yield env.timeout(5e-5)

    env.run(until=env.process(work()))


class TestAttributeRequest:
    def test_segments_match_the_timeline(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        _run_simple_request(env, tracer)
        table, roots = _table([("node0", tracer)])
        assert len(roots) == 1
        attribution = attribute_request(table, *roots[0])
        assert attribution.segments["queue"] == pytest.approx(1.5e-4)
        assert attribution.segments["dpu_arm"] == pytest.approx(2e-4)
        assert attribution.segments["ssd"] == pytest.approx(3e-4)
        assert attribution.total_s == pytest.approx(6.5e-4)
        assert attribution.conservation_error_s < 1e-12
        assert attribution.shard == 3
        assert attribution.path == "local"
        assert max(attribution.segments,
                   key=attribution.segments.get) == "ssd"

    def test_open_descendant_clamped_to_root_window(self):
        env = Environment()
        tracer = Tracer(env, node="node0")

        def work():
            with tracer.span("dds.request", category="network") as root:
                yield env.timeout(1e-4)
                # wedged span: never finished (crashed node idiom)
                tracer.begin("ssd.read", category="storage",
                             parent=root)
                yield env.timeout(2e-4)

        env.run(until=env.process(work()))
        table, roots = _table([("node0", tracer)])
        attribution = attribute_request(table, *roots[0])
        # the open span is charged up to the root's end
        assert attribution.segments["ssd"] == pytest.approx(2e-4)
        assert attribution.segments["queue"] == pytest.approx(1e-4)
        assert attribution.conservation_error_s < 1e-12

    def test_cross_node_subtree_joins_via_remote_parent(self):
        env = Environment()
        tracer_a = Tracer(env, node="nodeA")
        tracer_b = Tracer(env, node="nodeB")

        def work():
            with tracer_a.span("dds.request",
                               category="network") as root:
                yield env.timeout(1e-4)
                context = tracer_a.context_for(root)
                remote = tracer_b.begin("dds.request",
                                        category="network")
                tracer_b.adopt(remote, context)
                with tracer_b.span("ssd.read", category="storage",
                                   parent=remote):
                    yield env.timeout(3e-4)
                remote.finish()
                yield env.timeout(5e-5)

        env.run(until=env.process(work()))
        table, roots = _table([("nodeA", tracer_a),
                               ("nodeB", tracer_b)])
        # the adopted nodeB request is NOT a root — it has a parent
        assert [node for node, _root in roots] == ["nodeA"]
        attribution = attribute_request(table, *roots[0])
        assert attribution.nodes_touched == 2
        assert attribution.segments["ssd"] == pytest.approx(3e-4)
        assert attribution.conservation_error_s < 1e-12

    def test_conservation_property_over_random_trees(self):
        """Segments always sum to measured latency, whatever the tree."""
        names = ["dds.offload", "ssd.read", "tcp.msg_tx", "se.read",
                 "retry.attempt", "ce.sproc.run", "cluster.route"]
        for seed in range(8):
            rng = random.Random(seed)
            env = Environment()
            tracer = Tracer(env, node="node0")

            def subtree(depth):
                with tracer.span(rng.choice(names)):
                    yield env.timeout(rng.uniform(1e-6, 1e-4))
                    for _ in range(rng.randint(0, 2)
                                   if depth < 3 else 0):
                        yield from subtree(depth + 1)
                    yield env.timeout(rng.uniform(0.0, 5e-5))

            def request():
                with tracer.span("dds.request", category="network"):
                    yield env.timeout(rng.uniform(0.0, 1e-5))
                    for _ in range(rng.randint(1, 3)):
                        yield from subtree(0)

            def load():
                for _ in range(rng.randint(2, 5)):
                    yield from request()
                    yield env.timeout(rng.uniform(0.0, 1e-5))

            env.run(until=env.process(load()))
            report = build_report([("node0", tracer)])
            assert report.requests, f"seed {seed} produced no roots"
            for attribution in report.requests:
                assert attribution.conservation_error_s <= 1e-9
                assert all(s >= 0.0 for s in
                           attribution.segments.values())
                total = sum(attribution.segments.values())
                assert total == pytest.approx(attribution.total_s,
                                              abs=1e-12)


class TestReport:
    def _report(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        _run_simple_request(env, tracer)
        _run_simple_request(env, tracer)
        return build_report([("node0", tracer)])

    def test_aggregates_and_dict(self):
        report = self._report()
        assert len(report.requests) == 2
        totals = report.totals()
        assert totals["ssd"] == pytest.approx(6e-4)
        assert report.by_node()["node0"]["ssd"] == \
            pytest.approx(6e-4)
        assert report.by_shard()["3"]["ssd"] == pytest.approx(6e-4)
        top = report.top_bottlenecks()
        assert top[0] == ("node0", "ssd", pytest.approx(6e-4))
        document = report.to_dict()
        assert document["schema"] == "repro.obs/attr"
        assert document["requests"] == 2
        assert document["top_bottlenecks"][0]["category"] == "ssd"
        assert document["max_conservation_error_s"] <= 1e-9

    def test_bottleneck_ranking_is_deterministic_on_ties(self):
        report = self._report()
        rows = report.top_bottlenecks()
        assert rows == sorted(
            rows, key=lambda row: (-row[2], row[0], row[1]))


class _PlaneStub:
    """The minimum surface AttributionCollector needs from a plane."""

    def __init__(self, tracers):
        self._tracers = tracers

    def tracers(self):
        return self._tracers


class TestAttributionCollector:
    def test_incremental_collect_matches_one_shot(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        plane = _PlaneStub([("node0", tracer)])
        collector = AttributionCollector()
        _run_simple_request(env, tracer)
        collector.collect(plane)
        _run_simple_request(env, tracer)
        collector.collect(plane)
        # a scrape with nothing new appends an empty window
        collector.collect(plane)
        assert len(collector.requests) == 2
        one_shot = build_report(plane.tracers())
        assert collector.report().totals() == one_shot.totals()
        assert len(collector.windows) == 3
        assert collector.windows[-1] == {}

    def test_window_is_bounded_and_ranked(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        plane = _PlaneStub([("node0", tracer)])
        collector = AttributionCollector()
        for _ in range(WINDOW + 2):
            _run_simple_request(env, tracer)
            collector.collect(plane)
        assert len(collector.windows) == WINDOW       # maxlen enforced
        top = collector.top_bottlenecks()
        assert top[0][0:2] == ("node0", "ssd")
        # only the last WINDOW windows count: one request x 3e-4 ssd
        assert top[0][2] == pytest.approx(WINDOW * 3e-4)
        summary = collector.window_summary()
        assert summary["requests_attributed"] == WINDOW + 2
        assert summary["windows"] == WINDOW
        assert summary["top_bottlenecks"][0]["category"] == "ssd"
        assert "node0" in summary["latest_window"]

    def test_kernel_census(self):
        env = Environment()
        tracer = Tracer(env, node="node0")
        plane = _PlaneStub([("node0", tracer)])

        def work():
            with tracer.span("ce.kernel.compress",
                             category="compute",
                             device="host_cpu", input_bytes=1024):
                yield env.timeout(1e-5)

        env.run(until=env.process(work()))
        collector = AttributionCollector()
        collector.collect(plane)
        observation = collector.kernels[("compress", "host_cpu")]
        assert observation.calls == 1
        assert observation.mean_bytes == 1024
        assert observation.mean_latency_s == pytest.approx(1e-5)
