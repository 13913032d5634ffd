"""Overload protection at the cluster ingress: admission, deadlines.

Integration coverage for the overload-safe serving path: typed
rejection envelopes on the wire, strict-tenant isolation refused at
the admission gate (with spans proving *where* the refusal happened),
and client-stamped deadline propagation.
"""

import json

import pytest

from repro.buffers import RealBuffer, SynthBuffer
from repro.cluster import (
    Cluster,
    ClusterClient,
    encode_shard_write,
    response_ok,
    stamp_expiry,
)
from repro.core import AdmissionController, default_udf
from repro.core.wire import classify
from repro.core.tenancy import TenantRegistry
from repro.obs import ClusterTelemetry
from repro.sim import Environment
from repro.units import PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


def _arm(env, cluster, tenant_limits=None, **kwargs):
    """One AdmissionController per node, mirroring the bench setup."""
    for node in cluster.nodes:
        tenants = TenantRegistry(env)
        for name, limits in (tenant_limits or {}).items():
            tenants.register(name, **limits)
        node.dds.admission = AdmissionController(
            env, tenants, name=f"admission.{node.name}", **kwargs)


def _request_body(shard, **extra):
    body = {"type": "read", "shard": shard, "offset": 0,
            "size": PAGE_SIZE}
    body.update(extra)
    return RealBuffer(json.dumps(body).encode())


def _submit_and_run(env, cluster, client, message, shard):
    env.run(until=env.process(client.connect_all()))
    request = client.submit(message, shard)
    env.run(until=env.now + 5.0e-3)
    assert request.completed
    return request


def _envelope(request):
    return json.loads(request.data.data.decode())


class TestTypedRejection:
    def test_rate_limited_tenant_gets_retry_after(self, env):
        cluster = Cluster(env, 2)
        _arm(env, cluster, tenant_limits={
            "batch": {"rate_limit_ops_per_s": 100.0,
                      "burst_ops": 1.0}})
        client = ClusterClient(cluster, "client0")
        env.run(until=env.process(client.connect_all()))
        first = client.submit(_request_body(0, tenant="batch"), 0)
        second = client.submit(_request_body(0, tenant="batch"), 0)
        env.run(until=env.now + 5.0e-3)
        assert response_ok(first.data)
        assert classify(second.data) == "rejected"
        envelope = _envelope(second)
        assert envelope["error"] == "AdmissionRejected"
        assert envelope["reason"] == "rate_limit"
        assert envelope["retry_after_s"] > 0

    def test_response_rejected_is_specific(self):
        assert classify(None) == "error"
        assert classify(SynthBuffer(PAGE_SIZE)) == "ok"
        assert classify(RealBuffer(b"\x00raw")) == "ok"
        other = json.dumps({"error": "ClusterError", "detail": "x"})
        assert classify(RealBuffer(other.encode())) == "error"
        rejected = json.dumps({"error": "AdmissionRejected",
                               "reason": "shed",
                               "retry_after_s": 1e-3})
        assert classify(RealBuffer(rejected.encode())) == "rejected"

    def test_unprotected_node_never_rejects(self, env):
        cluster = Cluster(env, 2)
        client = ClusterClient(cluster, "client0")
        request = _submit_and_run(
            env, cluster, client,
            _request_body(0, tenant="batch"), 0)
        assert response_ok(request.data)


class TestStrictIsolationAtAdmission:
    def _run_strict(self, env):
        """A strict tenant's over-envelope request, traced."""
        plane = ClusterTelemetry(tracing=True, name="strict")
        cluster = Cluster(env, 2, telemetry=plane)
        _arm(env, cluster, tenant_limits={
            "strict": {"strict": True, "max_asic_jobs": 1}})
        shard = 0
        owner = cluster.shardmap.owner_of_shard(shard)
        tenant = cluster.node(owner).dds.admission.tenants.get(
            "strict")
        env.run(until=env.process(
            tenant.acquire_asic_slot("compress")))
        client = ClusterClient(cluster, "client0", home=owner)
        request = _submit_and_run(
            env, cluster, client,
            _request_body(shard, tenant="strict", asic="compress"),
            shard)
        return plane, owner, request

    def test_refused_with_a_typed_envelope(self, env):
        _plane, _owner, request = self._run_strict(env)
        envelope = _envelope(request)
        assert envelope["error"] == "IsolationViolation"
        assert "admission" in envelope["detail"]

    def test_spans_prove_the_rejection_location(self, env):
        plane, owner, _request = self._run_strict(env)
        tracer = plane.node(owner).tracer
        spans = tracer.all_spans()
        gates = [span for span in spans
                 if span.name == "dds.admission"]
        assert [span.attrs.get("verdict") for span in gates] \
            == ["rejected"]
        roots = [span for span in spans
                 if span.name == "dds.request"
                 and span.attrs.get("path") == "rejected"]
        assert len(roots) == 1
        # Refused at the gate means the storage path never ran: no
        # serve span exists anywhere on the owner.
        served = [span for span in spans
                  if span.name in ("cluster.shard_dpu",
                                   "cluster.shard_host")]
        assert served == []

    def test_within_envelope_request_is_served(self, env):
        plane = ClusterTelemetry(tracing=True, name="strict-ok")
        cluster = Cluster(env, 2, telemetry=plane)
        _arm(env, cluster, tenant_limits={
            "strict": {"strict": True, "max_asic_jobs": 1}})
        client = ClusterClient(cluster, "client0")
        request = _submit_and_run(
            env, cluster, client,
            _request_body(0, tenant="strict", asic="compress"), 0)
        assert response_ok(request.data)


class TestDeadlinePropagation:
    def test_stamp_adds_expiry_to_json_requests(self, env):
        stamped = stamp_expiry(_request_body(3), 2.5e-3)
        document = json.loads(stamped.data.decode())
        assert document["expires_s"] == 2.5e-3
        assert document["shard"] == 3

    def test_non_json_payloads_pass_through(self):
        synth = SynthBuffer(PAGE_SIZE)
        assert stamp_expiry(synth, 1.0) is synth
        raw = RealBuffer(b"\x00raw")
        assert stamp_expiry(raw, 1.0) is raw
        array = RealBuffer(b"[1, 2]")
        assert stamp_expiry(array, 1.0) is array

    @pytest.mark.xfail(
        strict=True,
        reason="stamp_expiry returns every non-RealBuffer untouched, "
               "and encode_shard_write carries its JSON header in a "
               "SynthBuffer label, so a stamping ClusterClient's reads "
               "carry expires_s and its writes never do: half of "
               "cluster_chaos's and slo's requests bypass admission's "
               "deadline-aware early rejection.  The fix (stamp through "
               "the label with with_trace_context's same-size rule) "
               "moves the slo and both cluster_* digests and lands with "
               "hostbench v2, which deletes this marker "
               "(docs/ROBUSTNESS.md)")
    def test_stamp_reaches_label_framed_writes(self):
        stamped = stamp_expiry(encode_shard_write(3, 0), 1.5e-3)
        assert default_udf(stamped)["expires_s"] == 1.5e-3
        assert stamped.size == encode_shard_write(3, 0).size

    def test_expired_request_is_refused_by_an_idle_node(self, env):
        # The stamp aged past its expiry upstream (here: stamped in
        # the past); admission sheds it even though the node is idle.
        cluster = Cluster(env, 2)
        _arm(env, cluster)
        client = ClusterClient(cluster, "client0")
        env.run(until=env.process(client.connect_all()))
        env.run(until=1.0e-3)
        doomed = stamp_expiry(_request_body(0), 0.5e-3)
        request = client.submit(doomed, 0)
        env.run(until=env.now + 5.0e-3)
        envelope = _envelope(request)
        assert envelope["error"] == "AdmissionRejected"
        assert envelope["reason"] == "deadline"

    def test_fresh_stamp_is_served(self, env):
        cluster = Cluster(env, 2)
        _arm(env, cluster)
        client = ClusterClient(cluster, "client0",
                               stamp_deadline_s=2.0e-3)
        request = _submit_and_run(env, cluster, client,
                                  _request_body(0), 0)
        assert response_ok(request.data)
