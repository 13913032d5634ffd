"""The DDS wire format, pinned byte for byte.

``GOLDEN`` was captured from the eight encoders as they stood in
``core/dds.py``, ``cluster/router.py`` and ``cluster/rebalance.py``
before they moved behind :mod:`repro.core.wire` (call -> buffer class,
``.size``, parsed header, in key order).  A message's size is simulated
time on every link it crosses, so a byte that moves here moves every
digest.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers import RealBuffer, SynthBuffer
from repro.core import wire
from repro.core.admission import AdmissionController
from repro.core.tenancy import TenantRegistry
from repro.errors import AdmissionRejected, ClusterError
from repro.obs import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment
from repro.units import PAGE_SIZE

CONTEXT = TraceContext("node0:1", "node0:2", "node0")
TRACE = {"id": "node0:1", "parent": "node0:2", "origin": "node0"}
ROWS = {"rows": list(range(40))}

#: (encoder, args, kwargs, buffer class, size, header)
GOLDEN = [
    ("encode_read", (7, 8192), {}, RealBuffer, 60,
     {"type": "read", "file_id": 7, "offset": 8192, "size": 8192}),
    ("encode_read", (7, 8192, 512), {}, RealBuffer, 59,
     {"type": "read", "file_id": 7, "offset": 8192, "size": 512}),
    ("encode_write", (7, 4096), {}, SynthBuffer, 8256,
     {"type": "write", "file_id": 7, "offset": 4096, "size": 8192}),
    ("encode_write", (7, 4096, 100), {}, SynthBuffer, 164,
     {"type": "write", "file_id": 7, "offset": 4096, "size": 100}),
    ("encode_log_replay", (2, 0), {}, SynthBuffer, 8256,
     {"type": "log_replay", "file_id": 2, "offset": 0, "size": 8192,
      "working_set": 0}),
    ("encode_log_replay", (2, 16384, 8192), {"working_set": 1 << 30},
     SynthBuffer, 8256,
     {"type": "log_replay", "file_id": 2, "offset": 16384,
      "size": 8192, "working_set": 1 << 30}),
    ("encode_sproc", ("double", 21), {}, SynthBuffer, 128,
     {"type": "sproc", "name": "double", "arg": 21}),
    ("encode_sproc", ("ghost",), {}, SynthBuffer, 128,
     {"type": "sproc", "name": "ghost", "arg": None}),
    # a header of 128 bytes or more travels as its own bytes
    ("encode_sproc", ("scan0001_s3", ROWS), {}, RealBuffer, 209,
     {"type": "sproc", "name": "scan0001_s3", "arg": ROWS}),
    ("encode_shard_read", (3, 0), {}, RealBuffer, 55,
     {"type": "read", "shard": 3, "offset": 0, "size": 8192}),
    ("encode_shard_read", (3, 4096), {"size": 1234, "tenant": "batch"},
     RealBuffer, 77,
     {"type": "read", "shard": 3, "offset": 4096, "size": 1234,
      "tenant": "batch"}),
    ("encode_shard_write", (3, 0), {}, SynthBuffer, 8256,
     {"type": "write", "shard": 3, "offset": 0, "size": 8192}),
    ("encode_shard_write", (5, 8192), {"tenant": "gold"}, SynthBuffer,
     8256,
     {"type": "write", "shard": 5, "offset": 8192, "size": 8192,
      "tenant": "gold"}),
    ("encode_shard_scan", (4, "scan0001_s4"), {}, RealBuffer, 52,
     {"type": "scan", "shard": 4, "sproc": "scan0001_s4"}),
    ("encode_shard_pull", (9,), {}, RealBuffer, 37,
     {"type": "migrate_shard", "shard": 9}),
]

#: (policy, encoder, args, buffer class, size, header) for one message
#: of each framing under each in-flight stamp
RESTAMPED = [
    ("trace", "encode_shard_read", (3, 0), SynthBuffer, 55,
     {"type": "read", "shard": 3, "offset": 0, "size": 8192,
      "trace": TRACE}),
    ("expiry", "encode_shard_read", (3, 0), RealBuffer, 76,
     {"type": "read", "shard": 3, "offset": 0, "size": 8192,
      "expires_s": 0.0025}),
    ("trace", "encode_shard_write", (3, 0), SynthBuffer, 8256,
     {"type": "write", "shard": 3, "offset": 0, "size": 8192,
      "trace": TRACE}),
    # label-framed: the expiry stamp does not reach it (pinned as a
    # finding in tests/cluster/test_overload.py)
    ("expiry", "encode_shard_write", (3, 0), SynthBuffer, 8256,
     {"type": "write", "shard": 3, "offset": 0, "size": 8192}),
    ("trace", "encode_shard_pull", (9,), SynthBuffer, 37,
     {"type": "migrate_shard", "shard": 9, "trace": TRACE}),
    ("expiry", "encode_shard_pull", (9,), RealBuffer, 58,
     {"type": "migrate_shard", "shard": 9, "expires_s": 0.0025}),
]


def _shape(buffer):
    header = wire.default_udf(buffer)
    return type(buffer), buffer.size, header, list(header)


def _stamp(policy, message):
    if policy == "trace":
        return wire.with_trace_context(message, CONTEXT)
    return wire.stamp_expiry(message, 2.5e-3)


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "name,args,kwargs,kind,size,header", GOLDEN,
        ids=[f"{row[0]}{row[1]}{row[2] or ''}" for row in GOLDEN])
    def test_encoder_matches_the_parent(self, name, args, kwargs, kind,
                                        size, header):
        message = getattr(wire, name)(*args, **kwargs)
        assert _shape(message) == (kind, size, header, list(header))
        if kind is RealBuffer:
            assert message.data == json.dumps(header).encode()
        else:
            assert message.label == json.dumps(header)

    @pytest.mark.parametrize(
        "policy,name,args,kind,size,header", RESTAMPED,
        ids=[f"{row[0]}-{row[1]}" for row in RESTAMPED])
    def test_restamp_matches_the_parent(self, policy, name, args, kind,
                                        size, header):
        stamped = _stamp(policy, getattr(wire, name)(*args))
        assert _shape(stamped) == (kind, size, header, list(header))

    def test_both_stamps_compose(self):
        message = wire.encode_shard_read(3, 0, tenant="batch")
        stamped = wire.with_trace_context(
            wire.stamp_expiry(message, 1.5e-3), CONTEXT)
        assert (type(stamped), stamped.size) == (SynthBuffer, 95)
        assert list(wire.default_udf(stamped)) == [
            "type", "shard", "offset", "size", "tenant", "expires_s",
            "trace"]

    def test_the_names_hostbench_imports_keep_their_homes(self):
        from repro.cluster import (encode_shard_read,
                                   encode_shard_write, response_ok)
        from repro.core import encode_log_replay, encode_read
        assert encode_read is wire.encode_read
        assert encode_log_replay is wire.encode_log_replay
        assert encode_shard_read is wire.encode_shard_read
        assert encode_shard_write is wire.encode_shard_write
        assert response_ok is wire.response_ok


_IDS = st.integers(min_value=0, max_value=2 ** 40)
_NAMES = st.text(min_size=1, max_size=24)


class TestRoundTrip:
    """``parse(encode(kind, **fields)) == fields`` for every encoder."""

    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(["read", "write", "log_replay"]),
           file_id=_IDS, offset=_IDS, size=_IDS, working_set=_IDS)
    def test_file_requests(self, kind, file_id, offset, size,
                           working_set):
        fields = {"file_id": file_id, "offset": offset, "size": size}
        if kind == "log_replay":
            fields["working_set"] = working_set
        message = getattr(wire, f"encode_{kind}")(**fields)
        assert wire.default_udf(message) == {"type": kind, **fields}
        if kind != "read":
            assert message.size == size + 64

    @settings(max_examples=50, deadline=None)
    @given(name=_NAMES,
           arg=st.recursive(
               st.none() | st.booleans() | _IDS | _NAMES,
               lambda inner: st.lists(inner, max_size=4)
               | st.dictionaries(_NAMES, inner, max_size=4),
               max_leaves=12))
    def test_sproc_requests(self, name, arg):
        message = wire.encode_sproc(name, arg)
        assert wire.default_udf(message) == {
            "type": "sproc", "name": name, "arg": arg}
        assert message.size >= 128
        if isinstance(message, RealBuffer):
            assert message.size == len(message.data) >= 128

    @settings(max_examples=50, deadline=None)
    @given(shard=_IDS, offset=_IDS, size=_IDS,
           tenant=st.none() | _NAMES, sproc=_NAMES)
    def test_shard_requests(self, shard, offset, size, tenant, sproc):
        metered = {} if tenant is None else {"tenant": tenant}
        assert wire.default_udf(
            wire.encode_shard_read(shard, offset, size, tenant)) == {
            "type": "read", "shard": shard, "offset": offset,
            "size": size, **metered}
        assert wire.default_udf(
            wire.encode_shard_write(shard, offset, tenant)) == {
            "type": "write", "shard": shard, "offset": offset,
            "size": PAGE_SIZE, **metered}
        assert wire.default_udf(
            wire.encode_shard_scan(shard, sproc)) == {
            "type": "scan", "shard": shard, "sproc": sproc}
        assert wire.default_udf(wire.encode_shard_pull(shard)) == {
            "type": "migrate_shard", "shard": shard}

    def test_what_the_udf_does_not_recognize_is_none(self):
        for opaque in (RealBuffer(b"\x00raw"), RealBuffer(b"[1, 2]"),
                       RealBuffer(b'{"no": "type"}'), RealBuffer(b""),
                       SynthBuffer(512), SynthBuffer(512, label="x"),
                       wire.ACK):
            assert wire.default_udf(opaque) is None


class TestRestampPolicies:
    def test_trace_keeps_size_and_compressibility(self):
        page = SynthBuffer(PAGE_SIZE + 64, compress_ratio=1.7,
                           label=json.dumps({"type": "write"}))
        for message in (wire.encode_shard_read(3, 0),
                        wire.encode_shard_write(3, 0), page):
            stamped = wire.with_trace_context(message, CONTEXT)
            assert stamped is not message
            assert stamped.size == message.size
            assert stamped.compress_ratio == getattr(
                message, "compress_ratio", 3.0)
            assert TraceContext.from_wire(
                wire.default_udf(stamped)["trace"]) == CONTEXT

    def test_expiry_is_real_bytes_that_grow_the_message(self):
        message = wire.encode_shard_read(3, 0)
        stamped = wire.stamp_expiry(message, 2.5e-3)
        grown = len(', "expires_s": 0.0025')
        assert stamped.size == message.size + grown
        assert stamped.data == json.dumps(
            {**wire.default_udf(message), "expires_s": 2.5e-3}).encode()

    def test_a_second_stamp_replaces_the_first_in_place(self):
        once = wire.stamp_expiry(wire.encode_shard_read(3, 0), 1.0)
        twice = wire.stamp_expiry(once, 2.0)
        assert list(wire.default_udf(twice)) == list(
            wire.default_udf(once))
        assert wire.default_udf(twice)["expires_s"] == 2.0

    def test_opaque_messages_pass_through_both(self):
        for opaque in (SynthBuffer(512, label="not json"),
                       RealBuffer(b"\x00raw"), RealBuffer(b"[1, 2]")):
            assert wire.with_trace_context(opaque, CONTEXT) is opaque
            assert wire.stamp_expiry(opaque, 1.0) is opaque
        message = wire.encode_shard_read(3, 0)
        assert wire.with_trace_context(message, None) is message


def _rejection():
    """What admission raises for a tenant over its rate limit."""
    env = Environment()
    tenants = TenantRegistry(env)
    tenants.register("batch", rate_limit_ops_per_s=100.0, burst_ops=1.0)
    admission = AdmissionController(env, tenants, MetricsRegistry(),
                                    name="admission")
    admission.admit("batch")
    with pytest.raises(AdmissionRejected) as caught:
        admission.admit("batch")
    return caught.value


class TestResponses:
    def test_a_large_partition_is_ok_without_being_parsed(
            self, monkeypatch):
        partition = RealBuffer(b"1,A,17,2450.25\n" * 69_906)
        assert partition.size >= 1 << 20

        def parsed(*_args, **_kwargs):
            raise AssertionError("a data response was parsed")

        monkeypatch.setattr(wire.json, "loads", parsed)
        assert wire.classify(partition) == "ok"
        assert wire.response_ok(partition)

    def test_data_and_acks_are_ok(self):
        for response in (wire.ACK, SynthBuffer(PAGE_SIZE),
                         RealBuffer(b""), RealBuffer(b"\x00raw"),
                         RealBuffer(b"{not json"),
                         wire.json_body({"result": 42}),
                         wire.json_body({"count": 3, "sum": 1.5,
                                         "min": 0.5, "max": 0.5})):
            assert wire.classify(response) == "ok"
            assert wire.response_ok(response)

    def test_a_missing_response_is_an_error(self):
        assert wire.classify(None) == "error"
        assert not wire.response_ok(None)

    def test_every_error_body_the_servers_emit(self):
        rejection = _rejection()
        bodies = {
            # ClusterDdsServer._handle, admission gate
            "rejected": wire.error_body(
                rejection, reason=rejection.reason,
                retry_after_s=rejection.retry_after_s),
            # ClusterDdsServer._handle, routing/serving failure
            "error": wire.error_body(ClusterError("unknown shard 99")),
        }
        assert json.loads(bodies["rejected"].data) == {
            "error": "AdmissionRejected", "detail": str(rejection),
            "reason": "rate_limit",
            "retry_after_s": rejection.retry_after_s}
        assert rejection.retry_after_s > 0
        assert bodies["error"].data == (
            b'{"error": "ClusterError", '
            b'"detail": "unknown shard 99"}')
        for verdict, body in bodies.items():
            assert wire.classify(body) == verdict
            assert not wire.response_ok(body)
        # DdsServer._invoke_sproc, a sproc that raised
        sproc_failure = wire.error_body(ZeroDivisionError("boom"))
        assert sproc_failure.data == (
            b'{"error": "ZeroDivisionError", "detail": "boom"}')
        # MigrationService._serve, a malformed pull
        bad_migrate = wire.json_body({"error": "bad migrate request"})
        assert bad_migrate.data == b'{"error": "bad migrate request"}'
        for body in (sproc_failure, bad_migrate):
            assert wire.classify(body) == "error"

    def test_aggregate_partial_round_trips(self):
        meta = {"count": 654, "sum": 32355187.08, "min": 901.0,
                "max": 104949.5}
        body = wire.json_body(meta)
        assert body.data == json.dumps(meta).encode()
        assert wire.parse_body(body) == meta

    def test_one_ack_everywhere(self):
        from repro.baselines import host_served
        from repro.cluster import router
        from repro.core import dds
        assert dds.ACK is router.ACK is host_served.ACK is wire.ACK
        assert (type(wire.ACK), wire.ACK.size) == (SynthBuffer, 64)
