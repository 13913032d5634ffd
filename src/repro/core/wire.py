"""The DDS wire format: every request and response body, in one place.

"A user UDF translates remote network requests into file operations"
(Section 7) — so the request format *is* the interface of the offload
engine, and this is the only module that knows it.  Servers, routers,
clients, the migration protocol and the query layer build and read
messages through the functions here and never touch JSON themselves.

A message is a JSON header, ``type`` first.  A request that carries no
payload travels as its own bytes (a :class:`RealBuffer` of the header,
so the UDF really parses bytes); one that carries a payload is a
:class:`SynthBuffer` of ``payload + 64`` bytes with the header in its
label — the payload bytes are synthetic, the framing overhead is not.
A sproc invocation occupies 128 bytes on the wire unless its header is
longer, in which case the header travels as its own bytes.  DESIGN.md
section 5 has the table (type, fields, buffer class, size rule) and
``tests/core/test_wire.py`` pins it byte for byte.

Two fields are stamped onto a request in flight, each with its own
size policy: ``trace`` (observer-only: the stamped copy keeps the
original's size so tracing perturbs nothing) and ``expires_s`` (a
real header field: the message grows by the bytes it adds).

Responses are a data buffer, the 64-byte :data:`ACK`, or a JSON body:
``{"error": …}`` (an error; ``AdmissionRejected`` is the typed
back-off), ``{"result": …}`` (a sproc's non-buffer return value) or a
scan sproc's aggregate partial.  :func:`classify` tells them apart.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..buffers import Buffer, RealBuffer, SynthBuffer
from ..units import PAGE_SIZE

__all__ = ["ACK", "classify", "default_udf", "encode_log_replay",
           "encode_read", "encode_shard_pull", "encode_shard_read",
           "encode_shard_scan", "encode_shard_write", "encode_sproc",
           "encode_write", "error_body", "json_body", "parse_body",
           "response_ok", "stamp_expiry",
           "with_trace_context"]

#: the response to a request that returns no data
ACK = SynthBuffer(64, label="ack")

#: framing bytes a payload-carrying request adds to its payload
_FRAME_BYTES = 64
#: wire bytes of a sproc invocation (a longer header travels as itself)
_SPROC_WIRE_BYTES = 128


# -- requests ----------------------------------------------------------------


def _header(kind: str, tenant: Optional[str] = None, **fields) -> str:
    """The one header builder: ``type``, then ``fields`` in the order
    given, then ``tenant`` when the request is metered."""
    header = {"type": kind, **fields}
    if tenant is not None:
        header["tenant"] = tenant
    return json.dumps(header)


def _bare(header: str) -> RealBuffer:
    """A request with no payload: the header's own bytes."""
    return RealBuffer(header.encode())


def _framed(header: str, payload_bytes: int) -> SynthBuffer:
    """A request with a payload: synthetic bytes, header in the label."""
    return SynthBuffer(payload_bytes + _FRAME_BYTES, label=header)


def encode_read(file_id: int, offset: int,
                size: int = PAGE_SIZE) -> Buffer:
    """A remote read request: a small real-bytes JSON message."""
    return _bare(_header("read", file_id=file_id, offset=offset,
                         size=size))


def encode_write(file_id: int, offset: int,
                 size: int = PAGE_SIZE) -> Buffer:
    """A remote write: header in the label, payload bytes synthetic."""
    return _framed(_header("write", file_id=file_id, offset=offset,
                           size=size), size)


def encode_log_replay(file_id: int, offset: int, size: int = PAGE_SIZE,
                      working_set: int = 0) -> Buffer:
    """A log-replay update — the paper's canonical non-offloadable op.

    ``working_set`` declares the hot-page memory the operation's
    replay context needs; the offload engine forwards the request to
    the host when DPU memory cannot hold it.
    """
    return _framed(_header("log_replay", file_id=file_id,
                           offset=offset, size=size,
                           working_set=working_set), size)


def encode_sproc(name: str, arg=None) -> Buffer:
    """A remote stored-procedure invocation (CompuCache-style).

    Section 5 adopts sprocs as the general offload abstraction; DDS
    exposes them to remote clients: the request names a sproc
    registered with the server's Compute Engine and carries a JSON
    argument.
    """
    header = _header("sproc", name=name, arg=arg)
    encoded = header.encode()
    if len(encoded) >= _SPROC_WIRE_BYTES:
        return RealBuffer(encoded)
    return SynthBuffer(_SPROC_WIRE_BYTES, label=header)


def encode_shard_read(shard: int, offset: int,
                      size: int = PAGE_SIZE,
                      tenant: str = None) -> Buffer:
    """A shard-addressed read (the owner resolves the backing file).

    ``tenant`` attributes the request for admission control; omitted
    it is unmetered (the pre-admission wire format, byte-identical).
    """
    return _bare(_header("read", tenant, shard=shard, offset=offset,
                         size=size))


def encode_shard_write(shard: int, offset: int,
                       tenant: str = None) -> Buffer:
    """A shard-addressed one-page write; payload bytes are synthetic."""
    return _framed(_header("write", tenant, shard=shard, offset=offset,
                           size=PAGE_SIZE), PAGE_SIZE)


def encode_shard_scan(shard: int, sproc: str) -> Buffer:
    """A shard-addressed scan: run a registered sproc on the owner.

    The distributed query engine's sub-query wire format — the sproc
    (a precompiled filter/project/aggregate pipeline over the shard's
    local file) is named, never shipped, exactly like the stock
    ``sproc`` DDS request.  Misdirected scans ride the same
    DPU-side forwarding as reads and writes.
    """
    return _bare(_header("scan", shard=shard, sproc=sproc))


def encode_shard_pull(shard: int) -> Buffer:
    """A migration-protocol request: ship me this shard's pages."""
    return _bare(_header("migrate_shard", shard=shard))


def default_udf(message: Buffer) -> Optional[Dict]:
    """The paper's 'simple UDF': extract file id, offset, size, type.

    Returns the parsed request, or ``None`` for messages the UDF does
    not recognize (which must then be forwarded to the host).
    """
    request = _document(message)
    if request is None or "type" not in request:
        return None
    return request


def _document(buffer: Buffer) -> Optional[Dict]:
    """The JSON object ``buffer`` carries — in its bytes, or in the
    label of a synthetic payload — else ``None``."""
    if isinstance(buffer, RealBuffer):
        raw = buffer.data.decode(errors="replace")
    else:
        raw = buffer.label
    if not raw:
        return None
    try:
        document = json.loads(raw)
    except (ValueError, TypeError):
        return None
    return document if isinstance(document, dict) else None


# -- fields stamped in flight ------------------------------------------------


def _restamp(message: Buffer, field: str, value,
             keep_size: bool) -> Buffer:
    """A copy of ``message`` with ``field`` set in its header; a
    message without a parseable header passes through untouched."""
    header = default_udf(message)
    if header is None:
        return message
    header[field] = value
    if not keep_size:
        return json_body(header)
    return SynthBuffer(message.size,
                       compress_ratio=getattr(message,
                                              "compress_ratio", 3.0),
                       label=json.dumps(header))


def with_trace_context(message: Buffer, context) -> Buffer:
    """Re-encode ``message`` with ``context`` in its JSON header.

    The rebuilt message is a :class:`SynthBuffer` of the *same size*
    as the original (``default_udf`` parses its label exactly like
    payload bytes), so transmission, parsing, and storage costs are
    identical with tracing on or off — the zero-perturbation contract
    the benchmarks assert.  Messages without a parseable header pass
    through untouched.
    """
    if context is None:
        return message
    return _restamp(message, "trace", context.to_wire(),
                    keep_size=True)


def stamp_expiry(message: Buffer, expires_s: float) -> Buffer:
    """A copy of a JSON request carrying an absolute deadline.

    Deadline propagation: the client stamps when the answer stops
    being useful, and every hop can compute the request's *remaining*
    budget from its own clock.  Unlike a relative budget, the stamp
    ages through every queue the request sits in — client stack,
    switch port, node ingress — which is exactly the queueing that
    server-side latency signals never see.  The stamp is real header
    bytes: only a request that travels as its own bytes takes it, a
    label-framed or non-JSON message passes through untouched.
    """
    if not isinstance(message, RealBuffer):
        return message
    return _restamp(message, "expires_s", expires_s, keep_size=False)


# -- responses ---------------------------------------------------------------


def json_body(document: Dict) -> RealBuffer:
    """A response (or re-stamped request) that is its JSON bytes."""
    return RealBuffer(json.dumps(document).encode())


def error_body(exc: BaseException, **extra) -> RealBuffer:
    """The typed error reply for ``exc``: class name, message, then the
    protocol's ``extra`` (admission's ``reason``, ``retry_after_s``)."""
    return json_body({"error": type(exc).__name__, "detail": str(exc),
                      **extra})


def parse_body(buffer: RealBuffer) -> Dict:
    """What :func:`json_body` wrote (a scan sproc's aggregate
    partial), read back."""
    return json.loads(buffer.data)


def classify(buffer: Optional[Buffer]) -> str:
    """``"ok"``, ``"rejected"`` or ``"error"`` for one response.

    An error is a JSON object with an ``error`` field (or no response
    at all).  ``rejected`` is the one error that is the protocol
    working as designed — a typed admission rejection: the server
    told the client to back off and when to retry, so availability
    SLIs exclude it rather than booking it as a failure.  Everything
    else (isolation violations, internal errors) counts against the
    SLO.  Only a body that opens with ``{`` is ever parsed: a pulled
    partition or a data page is ok at a glance.
    """
    if buffer is None:
        return "error"
    if not isinstance(buffer, RealBuffer) or buffer.data[:1] != b"{":
        return "ok"
    document = _document(buffer)
    if document is None or "error" not in document:
        return "ok"
    return ("rejected" if document["error"] == "AdmissionRejected"
            else "error")


def response_ok(buffer: Optional[Buffer]) -> bool:
    """True unless ``buffer`` is a JSON error body (or missing)."""
    return classify(buffer) == "ok"
