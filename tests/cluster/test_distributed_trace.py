"""One request, one connected trace — across nodes, paths, failures."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterClient,
    Rebalancer,
    encode_shard_read,
)
from repro.cluster.router import with_trace_context
from repro.faults import FaultInjector, FaultPlan
from repro.obs import ClusterTelemetry, TraceContext, Tracer
from repro.obs.trace import merge_chrome_events
from repro.sim import Environment

FAULT_AT_S = 3e-3
HORIZON_S = 12e-3


def _connect(env, client):
    env.run(until=env.process(client.connect_all()))


def _spans_named(plane, name):
    return [span for _node, tracer in plane.tracers()
            for span in tracer.all_spans() if span.name == name]


def _assert_connected(plane):
    """No span in the merged cluster trace may dangle."""
    events = [e for e in merge_chrome_events(plane.tracers())
              if e["ph"] == "X"]
    known = {e["args"]["span_id"] for e in events}
    dangling = [e for e in events
                if e["args"].get("parent_id") not in known
                and e["args"].get("parent_id") is not None]
    assert dangling == []
    return events


class TestEnvelopePropagation:
    def test_with_trace_context_preserves_size(self):
        message = encode_shard_read(3, 0)
        context = TraceContext("node0:1", "node0:2", "node0")
        stamped = with_trace_context(message, context)
        assert stamped.size == message.size
        assert stamped is not message

    def test_stamped_message_round_trips_context(self):
        from repro.core.dds import default_udf
        message = encode_shard_read(3, 4096)
        context = TraceContext("node0:1", "node0:2", "node0")
        header = default_udf(with_trace_context(message, context))
        assert header["shard"] == 3
        assert header["offset"] == 4096
        assert TraceContext.from_wire(header["trace"]) == context

    def test_none_context_or_opaque_message_pass_through(self):
        from repro.buffers import SynthBuffer
        message = encode_shard_read(3, 0)
        assert with_trace_context(message, None) is message
        opaque = SynthBuffer(512, label="not json")
        context = TraceContext("a:1", "a:2", "a")
        assert with_trace_context(opaque, context) is opaque


class TestForwardedRequestTrace:
    def test_forwarded_request_is_one_connected_tree(self):
        env = Environment()
        plane = ClusterTelemetry(tracing=True)
        cluster = Cluster(env, 2, n_shards=8, telemetry=plane)
        client = ClusterClient(cluster, "c0", home="node0",
                               stale_fraction=1.0)
        _connect(env, client)
        # A shard owned by node1, submitted to node0: the DPU
        # forwards it and node1 adopts node0's context.
        shard = cluster.node("node1").owned_shards()[0]
        client.submit(encode_shard_read(shard, 0), shard)
        env.run(until=env.now + 10e-3)
        assert client.outcomes()["ok"] == 1

        hops = _spans_named(plane, "cluster.route")
        assert len(hops) == 1
        adopted = [span for span in
                   plane.node("node1").tracer.all_spans()
                   if "remote_parent" in span.attrs]
        assert len(adopted) == 1
        root = adopted[0]
        assert root.attrs["origin"] == "node0"
        assert root.attrs["trace_id"].startswith("node0:")
        assert root.attrs["remote_parent"] \
            == f"node0:{hops[0].span_id}"
        # Every span closed, and the merged trace is fully linked:
        # the adopted tree hangs under node0's hop span.
        assert all(span.finished for _n, t in plane.tracers()
                   for span in t.all_spans())
        events = _assert_connected(plane)
        by_node = {(e["pid"], e["name"]) for e in events}
        assert (1, "cluster.route") in by_node
        assert (2, "dds.request") in by_node

    def test_multi_node_trace_is_node_tagged(self):
        env = Environment()
        plane = ClusterTelemetry(tracing=True)
        cluster = Cluster(env, 2, n_shards=8, telemetry=plane)
        client = ClusterClient(cluster, "c0", home="node0",
                               stale_fraction=1.0)
        _connect(env, client)
        shard = cluster.node("node1").owned_shards()[0]
        client.submit(encode_shard_read(shard, 0), shard)
        env.run(until=env.now + 10e-3)
        names = {e["pid"]: e["args"]["name"]
                 for e in merge_chrome_events(plane.tracers())
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"}
        assert names == {1: "node0", 2: "node1"}


class TestFailoverTrace:
    def test_crashed_dpu_serves_on_host_under_the_same_root(self):
        # A DPU crash mid-stream: requests already inside the node
        # degrade to the host SE ring, and each degraded serve must
        # stay a child of its own request root.
        env = Environment()
        plan = FaultPlan(seed=7).cpu_crash(
            1e-3, 1.0, site="cpu.node0.dpu.cpu")
        plane = ClusterTelemetry(tracing=True)
        cluster = Cluster(env, 1, n_shards=4,
                          injector=FaultInjector(env, plan),
                          telemetry=plane)
        client = ClusterClient(cluster, "c0", home="node0")
        _connect(env, client)

        def load():
            for tag in range(150):
                client.submit(encode_shard_read(tag % 4, 0),
                              tag % 4, tag=tag)
                yield env.timeout(2e-5)

        env.process(load())
        env.run(until=6e-3)
        assert client.outcomes()["ok"] >= 1
        counters = cluster.metrics_snapshot()["node0"]
        assert counters["breaker_trips"] >= 1
        assert counters["shard_failovers"] >= 1

        tracer = plane.node("node0").tracer
        host_spans = [span for span in tracer.all_spans()
                      if span.name == "cluster.shard_host"]
        assert host_spans
        assert all(span.finished for span in host_spans)
        by_id = {span.span_id: span for span in tracer.all_spans()}
        for span in host_spans:
            parent = by_id[span.parent_id]
            assert (parent.name, parent.parent_id) == ("dds.request", None)
            assert span._root is parent
            assert parent.attrs["path"] == "local"
        _assert_connected(plane)

    def test_breaker_open_emits_failover_instant(self):
        env = Environment()
        plane = ClusterTelemetry(tracing=True)
        cluster = Cluster(env, 1, n_shards=4, telemetry=plane)
        node = cluster.nodes[0]
        env.run(until=1e-4)
        for _ in range(4):
            node.breaker.record_failure()
        tracer = plane.node("node0").tracer
        assert [name for _t, name, _c, _p, _a in tracer.instants] \
            == ["traffic.failover"]


class TestMigrationTrace:
    def test_migration_pull_and_export_are_linked(self):
        env = Environment()
        plan = FaultPlan(seed=7).cpu_crash(
            FAULT_AT_S, 10 * HORIZON_S, site="cpu.node1.dpu.cpu")
        plane = ClusterTelemetry(tracing=True)
        cluster = Cluster(env, 3, n_shards=16,
                          injector=FaultInjector(env, plan),
                          telemetry=plane)
        Rebalancer(cluster)
        env.run(until=HORIZON_S)
        assert cluster.node("node1").retired

        pulls = _spans_named(plane, "rebalance.pull")
        exports = _spans_named(plane, "mig.export")
        moved = len(exports)
        assert moved >= 1 and len(pulls) == moved
        assert all(span.finished for span in pulls + exports)
        # Every export adopted the pulling node's context...
        refs = {span.attrs["remote_parent"] for span in exports}
        assert refs == {f"{_node_of(plane, pull)}:{pull.span_id}"
                        for pull in pulls}
        # ...so the merged trace links them cross-node.
        _assert_connected(plane)

    def test_failed_pull_still_closes_its_span(self):
        # A pull against a dead exporter times out: the span must
        # close with the error recorded, not leak open.
        env = Environment()
        plan = FaultPlan(seed=7) \
            .cpu_crash(FAULT_AT_S, 10 * HORIZON_S,
                       site="cpu.node1.dpu.cpu") \
            .cpu_crash(FAULT_AT_S, 10 * HORIZON_S,
                       site="cpu.node1.host")
        plane = ClusterTelemetry(tracing=True)
        cluster = Cluster(env, 3, n_shards=16,
                          injector=FaultInjector(env, plan),
                          telemetry=plane)
        rebalancer = Rebalancer(cluster)
        env.run(until=HORIZON_S)
        pulls = _spans_named(plane, "rebalance.pull")
        if not cluster.node("node1").retired:       # the drain failed
            assert any("error" in span.attrs for span in pulls)
        assert all(span.finished for span in pulls)


def _node_of(plane, span):
    for node, tracer in plane.tracers():
        if span in tracer.all_spans():
            return node
    raise AssertionError("span belongs to no tracer")


class TestZeroPerturbation:
    def test_plane_does_not_change_the_simulation(self):
        def run(plane):
            env = Environment()
            cluster = Cluster(env, 2, n_shards=8, telemetry=plane)
            client = ClusterClient(cluster, "c0", home="node0",
                                   stale_fraction=0.5)
            _connect(env, client)
            for tag in range(40):
                client.submit(encode_shard_read(tag % 8, 0),
                              tag % 8, tag=tag)
            env.run(until=10e-3)
            return (env.now, client.outcomes(),
                    cluster.metrics_snapshot())

        bare = run(None)
        observed = run(ClusterTelemetry(tracing=True))
        metrics_only = run(ClusterTelemetry(tracing=False))
        assert observed == bare
        assert metrics_only == bare


class TestTracerIsolation:
    def test_tracerless_cluster_records_nothing(self):
        env = Environment()
        cluster = Cluster(env, 2, n_shards=8)
        client = ClusterClient(cluster, "c0", home="node0",
                               stale_fraction=1.0)
        _connect(env, client)
        shard = cluster.node("node1").owned_shards()[0]
        client.submit(encode_shard_read(shard, 0), shard)
        env.run(until=env.now + 5e-3)
        assert client.outcomes()["ok"] == 1
        for node in cluster.nodes:
            assert not node.dds.tracer.enabled

    def test_retry_spans_close_on_exhaustion(self):
        from repro.errors import FaultInjectedError, ReproError
        from repro.faults import RetryPolicy, retrying

        env = Environment()
        tracer = Tracer(env, node="local")
        policy = RetryPolicy(max_attempts=3, base_delay_s=1e-5,
                             retryable=(FaultInjectedError,))

        def attempt():
            raise FaultInjectedError("always", site="x", kind="error")
            yield    # pragma: no cover - generator shape

        def driver():
            with pytest.raises(ReproError):
                yield from retrying(env, policy, attempt,
                                    tracer=tracer)

        env.run(until=env.process(driver()))
        attempts = [span for span in tracer.all_spans()
                    if span.name == "retry.attempt"]
        assert len(attempts) == 3
        assert all(span.finished for span in attempts)
        assert all(span.attrs["error"] == "FaultInjectedError"
                   for span in attempts)
        backoffs = [name for _t, name, _c, _p, _a in tracer.instants
                    if name == "retry.backoff"]
        assert len(backoffs) == 2    # no sleep after the last attempt
