"""DDS: the DPU-optimized disaggregated storage server (Sections 7, 9).

The paper's first realized DPDPU component.  Remote storage requests
arrive at the DPU NIC; a user-supplied **UDF** parses each network
message and either translates it into a file operation the DPU
executes directly (the *offloaded* path — no host involvement, Figure
8 right), or declines it, in which case the request is forwarded to
the host application (the *partial offloading* the paper argues is
necessary because DPU memory is an order of magnitude too small for
e.g. log replay).

Mapping to the paper's three DDS questions:

* **Q1 (files on SSDs directly from the DPU)** — the Storage Engine's
  DPU-owned filesystem/file mapping (:meth:`StorageEngine.dpu_read`).
* **Q2 (directing traffic between DPU and host)** — the NIC flow
  table steers the storage port to the DPU stack; request-level
  splitting happens after UDF parsing, and responses are re-serialized
  per connection so transport semantics (in-order delivery) survive
  the split.
* **Q3 (general and efficient offloading)** — the UDF API below plus
  zero-copy buffer hand-off between NE and SE.

Requests are JSON headers carried in message buffers — the UDF really
parses bytes; the format lives in :mod:`repro.core.wire`.  Responses
return in request order on each connection.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..buffers import Buffer, SynthBuffer
from ..errors import OffloadRejected
from ..obs.trace import NULL_TRACER
from ..sim import Store
from ..sim.stats import Counter, Tally
from ..units import PAGE_SIZE
from .requests import AsyncRequest
from .wire import ACK, default_udf, encode_read, error_body, json_body

__all__ = ["DdsServer", "DdsClient", "OrderedResponder"]

#: host application cycles per forwarded read/write, and per log-replay
#: update (an order of magnitude heavier); the host-served baseline
#: charges the same two figures
HOST_REQUEST_CYCLES = 4_000.0
HOST_REPLAY_CYCLES = 60_000.0


# -- the server --------------------------------------------------------------------


class DdsServer:
    """A DDS instance serving remote storage requests on the DPU."""

    #: request types the DPU can execute directly
    OFFLOADABLE = ("read", "write", "sproc")

    def __init__(self, runtime, port: int,
                 udf: Callable[[Buffer], Optional[Dict]] = default_udf,
                 offload_enabled: bool = True,
                 name: str = "dds"):
        self.runtime = runtime
        self.env = runtime.env
        self.ne = runtime.network
        self.se = runtime.storage
        self.server = runtime.server
        self.costs = runtime.server.costs.software
        self.port = port
        self.udf = udf
        self.offload_enabled = offload_enabled
        self.name = name
        telemetry = getattr(runtime, "telemetry", None)
        self.tracer = (telemetry.tracer if telemetry is not None
                       else NULL_TRACER)
        self.offloaded = Counter(f"{name}.offloaded")
        self.forwarded = Counter(f"{name}.forwarded")
        self.offload_latency = Tally(f"{name}.offload_latency")
        self.forward_latency = Tally(f"{name}.forward_latency")
        if telemetry is not None:
            registry = telemetry.metrics
            registry.register(f"{name}.offloaded", self.offloaded)
            registry.register(f"{name}.forwarded", self.forwarded)
            registry.register(f"{name}.offload_latency",
                              self.offload_latency)
            registry.register(f"{name}.forward_latency",
                              self.forward_latency)
        self._replay_allocations = {}
        self.env.process(self._accept_loop(), name=f"{name}-accept")

    def _accept_loop(self):
        listener = self.ne.tcp.listen(self.port)
        while True:
            connection = yield listener.accept()
            self.env.process(self._serve_connection(connection),
                             name=f"{self.name}-conn")

    def _serve_connection(self, connection):
        ordered = OrderedResponder(self.env, connection)
        sequence = 0
        while True:
            message = yield connection.recv_message()
            self.env.process(
                self._handle(message, sequence, ordered),
                name=f"{self.name}-req",
            )
            sequence += 1

    def _handle(self, message: Buffer, sequence: int,
                ordered: "OrderedResponder"):
        started = self.env.now
        with self.tracer.span("dds.request", category="network",
                              sequence=sequence,
                              bytes=message.size) as root:
            # UDF parsing runs on a DPU core.
            with self.tracer.span("dds.udf_parse", category="compute"):
                yield from self.se.dpu.cpu.execute(
                    self.costs.udf_parse_cycles
                )
            request = self.udf(message)
            response = yield from self._dispatch(request, message,
                                                 started, root)
            ordered.post(sequence, response)

    def _dispatch(self, request: Optional[Dict], message: Buffer,
                  started: float, root):
        """Offload a parsed request, or forward it to the host
        (generator -> the response buffer)."""
        if self._offloadable(request):
            try:
                with self.tracer.span("dds.offload", category="compute",
                                      target="dpu",
                                      op=request.get("type")):
                    response = yield from self._execute_on_dpu(request)
                self.offloaded.add(1)
                self.offload_latency.observe(self.env.now - started)
                root.annotate(path="offloaded")
                return response
            except OffloadRejected:
                pass
        with self.tracer.span("dds.forward", category="compute",
                              target="host",
                              op=(request.get("type")
                                  if request else None)):
            response = yield from self._forward_to_host(request, message)
        self.forwarded.add(1)
        self.forward_latency.observe(self.env.now - started)
        root.annotate(path="forwarded")
        return response

    def _offloadable(self, request: Optional[Dict]) -> bool:
        if not self.offload_enabled or request is None:
            return False
        return request.get("type") in self.OFFLOADABLE

    def _execute_on_dpu(self, request: Dict):
        """The offloaded path: UDF output -> direct file operation."""
        kind = request["type"]
        if kind == "read":
            buffer = yield from self.se.dpu_read(
                request["file_id"], request["offset"], request["size"]
            )
            return buffer
        if kind == "write":
            yield from self.se.dpu_write(
                request["file_id"], request["offset"],
                SynthBuffer(request["size"],
                            label=f"w{request['offset']}"),
            )
            return ACK
        if kind == "sproc":
            return (yield from self._invoke_sproc(
                request.get("name"), request.get("arg")))
        raise OffloadRejected(f"cannot offload {kind!r}")

    def _invoke_sproc(self, name, arg):
        """Run a registered sproc on behalf of a remote client."""
        compute = self.runtime.compute
        if name not in compute.sproc_names():
            raise OffloadRejected(f"no sproc named {name!r}")
        invocation = compute.invoke(name, arg)
        try:
            result = yield invocation.done
        except OffloadRejected:
            raise
        except BaseException as exc:
            # Sproc errors become an error reply, not a dead request.
            return error_body(exc)
        if isinstance(result, Buffer):
            return result
        return json_body({"result": result})

    def _forward_to_host(self, request: Optional[Dict],
                         message: Buffer):
        """The partial-offloading path: host executes the request.

        Costs: DMA the request to host memory, host application
        cycles (log-replay work is an order of magnitude heavier than
        a plain request), the file operation through the SE's unified
        filesystem, and a DMA back for the response.
        """
        dpu = self.se.dpu
        yield from dpu.dma.copy(max(message.size, 64),
                                direction="to_host")
        # The host side is interrupt-driven: pay the wake-up latency.
        yield self.env.timeout(self.costs.kernel_wakeup_latency_s)
        kind = request.get("type") if request else None
        if kind == "log_replay":
            working_set = request.get("working_set", 0)
            if working_set:
                yield from self._charge_replay_memory(request, working_set)
            yield from self.server.host_cpu.execute(HOST_REPLAY_CYCLES)
            write = self.se.write(
                request["file_id"], request["offset"],
                SynthBuffer(request["size"]),
            )
            yield write.done
            response: Buffer = ACK
        elif kind == "read":
            yield from self.server.host_cpu.execute(HOST_REQUEST_CYCLES)
            read = self.se.read(request["file_id"], request["offset"],
                                request["size"])
            response = yield read.done
        elif kind == "write":
            yield from self.server.host_cpu.execute(HOST_REQUEST_CYCLES)
            write = self.se.write(
                request["file_id"], request["offset"],
                SynthBuffer(request["size"]),
            )
            yield write.done
            response = ACK
        else:
            # Unknown message: host application handles it opaquely.
            yield from self.server.host_cpu.execute(HOST_REQUEST_CYCLES)
            response = ACK
        yield from dpu.dma.copy(max(response.size, 64),
                                direction="to_device")
        return response

    def _charge_replay_memory(self, request: Dict, working_set: int):
        """Pin the replay context's hot pages in *host* memory."""
        key = request["file_id"]
        if key not in self._replay_allocations:
            allocation = yield from self.server.host_memory.allocate(
                working_set, tag=f"{self.name}:replay"
            )
            self._replay_allocations[key] = allocation

    @property
    def offload_fraction(self) -> float:
        total = self.offloaded.value + self.forwarded.value
        return self.offloaded.value / total if total else 0.0


class OrderedResponder:
    """Re-serializes concurrent responses into request order (Q2)."""

    def __init__(self, env, connection):
        self.env = env
        self.connection = connection
        self._ready: Dict[int, Buffer] = {}
        self._signal = Store(env)
        self._next = 0
        env.process(self._sender())

    def post(self, sequence: int, response: Buffer) -> None:
        """Hand over the response for request number ``sequence``."""
        # Fast path: an in-order response with no backlog goes out
        # synchronously when the connection can take it (try_send
        # refuses whenever an earlier send is still blocked, so
        # ordering is preserved); otherwise signal the sender process.
        if (sequence == self._next and not self._ready
                and self._try_send(response)):
            self._next += 1
            return
        self._ready[sequence] = response
        self._signal.put(True)

    def _try_send(self, response: Buffer) -> bool:
        try_send = getattr(self.connection, "try_send_message", None)
        return try_send is not None and try_send(response)

    def _sender(self):
        while True:
            yield self._signal.get()
            while self._next in self._ready:
                response = self._ready.pop(self._next)
                self._next += 1
                yield from self.connection.send_message(response)


# -- the client ----------------------------------------------------------------------


class DdsClient:
    """A remote client of a DDS (or baseline) storage server.

    Wraps a kernel-TCP connection on the client machine; requests are
    pipelined and responses matched in order.
    """

    def __init__(self, connection, name: str = "dds-client"):
        self.connection = connection
        self.env = connection.env
        self.name = name
        self._pending = []
        self._blocked_sends = 0
        self.request_latency = Tally(f"{name}.latency")
        self.env.process(self._response_loop(), name=f"{name}-rx")

    def submit(self, message: Buffer) -> AsyncRequest:
        """Pipeline one encoded request; returns its async handle."""
        request = AsyncRequest(self.env, "dds:request")
        self._pending.append(request)
        # Fast path: accept the message into the send queue without
        # spawning a one-shot sender process.  Fall back to one when
        # the queue is full (back-pressure) — and keep falling back
        # while any fallback sender is outstanding, so messages can
        # never overtake one that is still waiting to start.
        if self._blocked_sends or \
                not self.connection.try_send_message(message):
            self._blocked_sends += 1

            def sender():
                try:
                    yield from self.connection.send_message(message)
                finally:
                    self._blocked_sends -= 1

            self.env.process(sender())
        return request

    def read(self, file_id: int, offset: int, size: int = PAGE_SIZE):
        """Synchronous-style read (generator -> Buffer)."""
        request = self.submit(encode_read(file_id, offset, size))
        yield request.done
        return request.data

    def _response_loop(self):
        while True:
            buffer = yield self.connection.recv_message()
            if self._pending:
                request = self._pending.pop(0)
                self.request_latency.observe(request.latency)
                request.complete(buffer)
