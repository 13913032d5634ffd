"""A TCP implementation over the simulated NIC/wire substrate.

This is the protocol engine shared by the *kernel TCP* baseline
(Figure 3's measurement target) and the Network Engine's DPU-offloaded
stack (Section 6): the state machine is identical; what differs is
**which CPU pays the per-segment cycles** and at what rate, selected by
the stack's ``mode`` ("kernel" on host cores vs "dpu" on Arm cores with
the optimized userspace stack).

Implemented behaviour:

* three-way handshake (SYN / SYN-ACK / ACK) and FIN teardown,
* byte-stream sequence numbers, cumulative ACKs, out-of-order
  reassembly at the receiver,
* receive-window flow control (bounded receive buffer, advertised
  window honoured by the sender),
* congestion control: slow start, congestion avoidance (AIMD), fast
  retransmit on three duplicate ACKs, RTO with exponential backoff and
  RFC 6298 RTT estimation,
* message framing on top of the stream (one ``send_message`` becomes
  one or more MSS-sized segments; the receiver reassembles the
  original buffer),
* loss injection via the wire for exercising the recovery paths.

CPU accounting: transmit-side cycles are charged inline in the sender
process (the data path really waits for them); receive-side cycles are
charged asynchronously so that a single dispatcher process does not
artificially serialize softirq work that real kernels spread across
cores.  Either way every cycle lands in the owning cluster's busy-time
integral, which is what Figures 2/3 measure.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ..buffers import Buffer, SynthBuffer, RealBuffer, as_buffer
from ..errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    FaultInjectedError,
    NetworkError,
)
from ..hardware.costs import SoftwarePathCosts
from ..hardware.cpu import CpuCluster
from ..hardware.nic import Nic
from ..obs.trace import NULL_TRACER
from ..sim import Environment, Store, when_done
from ..sim.resources import REFUSED, Container
from ..sim.stats import Counter, fold_sum

__all__ = ["TcpStack", "TcpConnection", "TcpListener"]

_MSS = 8960                       # jumbo-frame payload, one 8 KiB page fits
_HEADER_BYTES = 66                # eth + ip + tcp headers on the wire
_INIT_CWND = 10 * _MSS
_BUFFER_BYTES = 1 << 20           # send and receive socket buffers
_MIN_RTO = 2e-3
_INIT_RTO = 20e-3
_MAX_RTO = 0.2                    # backoff ceiling (data RTO and SYN)

#: Upper bound on segments coalesced into one CPU charge + NIC burst
#: (TSO-style); bounds head-of-line blocking on the TX serializer.
_MAX_BURST = 16


def _concat(buffers) -> Buffer:
    """Reassemble segment payloads into one message buffer."""
    if len(buffers) == 1:
        return buffers[0]
    if all(isinstance(b, RealBuffer) for b in buffers):
        return RealBuffer(b"".join(b.data for b in buffers))
    total = fold_sum(b.size for b in buffers)
    first = buffers[0]
    ratio = getattr(first, "compress_ratio", 3.0)
    label = getattr(first, "label", "")
    return SynthBuffer(total, ratio, label)


class TcpListener:
    """A passive socket: accepted connections arrive in a queue."""

    def __init__(self, stack: "TcpStack", port: int):
        self.stack = stack
        self.port = port
        self._accepted = Store(stack.env, name=f"listen:{port}")

    def accept(self):
        """Event yielding the next established :class:`TcpConnection`."""
        return self._accepted.get()

    def _deliver(self, connection: "TcpConnection") -> None:
        self._accepted.put(connection)


class TcpConnection:
    """One established TCP connection endpoint."""

    def __init__(self, stack: "TcpStack", cid: int, port: int,
                 remote: Optional[str] = None):
        self.stack = stack
        self.env = stack.env
        self.cid = cid
        self.port = port
        #: fabric address of the peer (None on point-to-point wires)
        self.remote = remote
        self.closed = False

        # --- sender state ---
        self._snd_buffer = Container(
            self.env, capacity=_BUFFER_BYTES, init=_BUFFER_BYTES
        )
        self._snd_queue = Store(self.env, capacity=64)   # queued messages
        self._snd_base = 0                          # oldest unacked seq
        self._snd_next = 0                          # next seq to send
        self._inflight: Dict[int, dict] = {}        # seq -> segment
        self._cwnd = float(_INIT_CWND)
        self._ssthresh = float(1 << 20)
        self._peer_rwnd = _BUFFER_BYTES
        self._dup_acks = 0
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = _INIT_RTO
        #: single pending retransmission timer (a Timeout with _on_rto
        #: as its callback).  Re-arming only moves the deadline; the
        #: timer itself re-sleeps when it fires early, so bursts and
        #: ACKs cost no timer churn.
        self._rto_timer = None
        self._rto_deadline = 0.0
        self._window_open = self.env.event()
        self.env.process(self._sender_loop(), name=f"tcp-send-{cid}")

        # --- receiver state ---
        self._rcv_next = 0
        self._rcv_pending = 0                       # bytes not yet read
        self._out_of_order: Dict[int, dict] = {}
        self._assembly: list = []                   # current message's parts
        self._messages = Store(self.env)            # reassembled Buffers

        # --- metrics ---
        self.retransmits = Counter(f"tcp{cid}.retransmits")

    # ---------------------------------------------------------------- send

    def send_message(self, payload):
        """Queue one message for transmission (generator).

        Completes when the message is accepted into the (bounded) send
        queue — flow control applies back-pressure through this call.
        """
        if self.closed:
            raise ConnectionClosedError(f"connection {self.cid} is closed")
        buffer = as_buffer(payload)
        yield self._snd_queue.put({
            "buffer": buffer,
            "enqueued_at": self.env.now,
        })

    def try_send_message(self, payload) -> bool:
        """Queue one message *now* if the send queue has room.

        Synchronous fast path for :meth:`send_message`: returns True
        when the message was accepted immediately (same effect and
        ordering as the generator path), False when the queue is full
        or earlier senders are still blocked — callers then fall back
        to ``yield from send_message(...)`` for back-pressure.
        """
        if self.closed:
            raise ConnectionClosedError(f"connection {self.cid} is closed")
        return self._snd_queue.try_put({
            "buffer": as_buffer(payload),
            "enqueued_at": self.env.now,
        })

    def drain(self):
        """Generator that completes when all queued data is ACKed."""
        while self._inflight or len(self._snd_queue.items):
            yield self.env.timeout(self._rto / 4)

    def _sender_loop(self):
        env = self.env
        stack = self.stack
        queue = self._snd_queue
        snd_buffer = self._snd_buffer
        while True:
            item = queue.try_get()
            if item is REFUSED:
                item = yield queue.get()
            if stack.tracer.enabled:
                yield from self._send_message_traced(item)
                continue
            buffer: Buffer = item["buffer"]
            offset = 0
            size = max(buffer.size, 1)
            while item is not None:
                chunk = min(_MSS, size - offset)
                # Blocking prelude, identical to the unbatched path:
                # send-buffer credit and an open window for the first
                # segment of the burst.  Both are taken inline when
                # available; an event is paid only to wait.
                if not snd_buffer.try_get(chunk):
                    yield snd_buffer.get(chunk)
                if (self._snd_next - self._snd_base + chunk
                        > min(self._cwnd, self._peer_rwnd)):
                    yield from self._await_window(chunk)
                # Burst builder (TSO-style): greedily gather every
                # segment sendable *right now* — across queued
                # messages, while the window and buffer credit last —
                # without yielding, so the snapshot stays consistent.
                frames = []                 # (segment, wire bytes)
                cycles = 0.0
                window = min(self._cwnd, self._peer_rwnd)
                inflight_bytes = self._snd_next - self._snd_base
                credit = snd_buffer.level
                now = env.now
                per_msg = stack._per_msg
                per_byte = stack._per_byte
                while True:
                    if offset == 0 and chunk >= buffer.size:
                        # whole message (an empty one too), one segment
                        payload = buffer
                    else:
                        payload = buffer.slice(
                            offset, min(chunk, buffer.size - offset)
                        )
                    last = offset + chunk >= size
                    seq = self._snd_next
                    self._snd_next += chunk
                    segment = {
                        "proto": "tcp", "kind": "data", "cid": self.cid,
                        "dst": self.remote, "src": stack.address,
                        "port": self.port, "seq": seq, "len": chunk,
                        "payload": payload, "last": last,
                        "enqueued_at": item["enqueued_at"],
                        "sent_at": now, "retransmitted": False,
                    }
                    self._inflight[seq] = segment
                    frames.append((segment, chunk + _HEADER_BYTES))
                    cycles += per_msg + per_byte * chunk
                    inflight_bytes += chunk
                    offset += chunk
                    if last:
                        item = queue.try_get()
                        if item is REFUSED:
                            item = None
                            break
                        buffer = item["buffer"]
                        offset = 0
                        size = max(buffer.size, 1)
                    if len(frames) >= _MAX_BURST:
                        break
                    chunk = min(_MSS, size - offset)
                    if inflight_bytes + chunk > window:
                        break
                    if credit < chunk:
                        break
                    credit -= chunk
                    # Granted by construction: credit tracks the level
                    # and this process is the only getter.
                    snd_buffer.try_get(chunk)
                # One fused CPU charge and one NIC burst for the lot.
                # Fastest path: both the charge and the serializer
                # become eventless reservations and the sender parks
                # on a single timeout spanning charge + serialization
                # — frame arrival times and the resume instant match
                # the evented sequence exactly.
                cpu = stack.cpu
                wait = None
                charged = False
                if cpu.injector is None:
                    charge_s = cpu.seconds_for(cycles)
                    charged = cpu.charge_async(cycles)
                    if charged:
                        wait = stack.nic.transmit_batch_after(
                            charge_s, frames)
                        if wait is None and charge_s > 0:
                            # TX contended: the charge is burned, so
                            # just advance past it before the evented
                            # transmit below.
                            yield env.timeout(charge_s)
                if wait is not None:
                    stack.segments_tx.value += len(frames)
                    yield env.timeout(wait)
                else:
                    if not charged:
                        yield from stack._charge_cycles(cycles)
                    stack.segments_tx.value += len(frames)
                    yield from stack.nic.transmit_batch(frames)
                self._arm_rto()

    def _send_message_traced(self, item: dict):
        """Unbatched per-segment path, kept for traced runs so every
        message still gets its own span with a segment count."""
        buffer: Buffer = item["buffer"]
        offset = 0
        size = max(buffer.size, 1)
        segments = 0
        with self.stack.tracer.span(
                "tcp.msg_tx", category="network", cid=self.cid,
                bytes=buffer.size) as span:
            while offset < size:
                chunk = min(_MSS, size - offset)
                # Reserve send-buffer space for the bytes in
                # flight; released as ACKs cover them.
                yield self._snd_buffer.get(chunk)
                yield from self._await_window(chunk)
                if offset == 0 and chunk >= buffer.size:
                    # whole message (an empty one too), one segment
                    payload = buffer
                else:
                    payload = buffer.slice(
                        offset, min(chunk, buffer.size - offset)
                    )
                last = offset + chunk >= size
                yield from self._transmit_segment(
                    payload, chunk, last, item["enqueued_at"]
                )
                offset += chunk
                segments += 1
            span.annotate(segments=segments)

    def _await_window(self, chunk: int):
        while True:
            window = min(self._cwnd, self._peer_rwnd)
            inflight_bytes = self._snd_next - self._snd_base
            if inflight_bytes + chunk <= window:
                return
            self._window_open = self.env.event()
            yield self._window_open

    def _transmit_segment(self, payload: Buffer, chunk: int, last: bool,
                          enqueued_at: float):
        seq = self._snd_next
        self._snd_next += chunk
        segment = {
            "proto": "tcp", "kind": "data", "cid": self.cid,
            "dst": self.remote, "src": self.stack.address,
            "port": self.port, "seq": seq, "len": chunk,
            "payload": payload, "last": last,
            "enqueued_at": enqueued_at, "sent_at": self.env.now,
            "retransmitted": False,
        }
        self._inflight[seq] = segment
        yield from self.stack._charge_tx(chunk)
        yield from self.stack._send_frame(segment, chunk + _HEADER_BYTES)
        self._arm_rto()

    # ------------------------------------------------------------- receive

    def recv_message(self):
        """Event yielding the next complete message :class:`Buffer`.

        Reading releases receive-buffer space, which re-opens the
        advertised window (application-level back-pressure).
        """
        event = self._messages.get()
        when_done(event, self._consumed)
        return event

    def _consumed(self, event) -> None:
        if event.ok:
            before = self._advertised_window()
            self._rcv_pending -= max(event.value.size, 1)
            # Window update: if consumption reopened a (nearly) closed
            # window, tell the sender — otherwise a zero-window stall
            # never resolves (TCP's classic window-update/persist
            # problem).
            if before < _MSS <= self._advertised_window():
                self.stack._post_ack(self)

    def _on_data(self, segment: dict) -> None:
        seq = segment["seq"]
        if seq == self._rcv_next:
            self._accept_segment(segment)
            # Drain any contiguous out-of-order segments.
            while self._rcv_next in self._out_of_order:
                self._accept_segment(
                    self._out_of_order.pop(self._rcv_next)
                )
        elif seq > self._rcv_next:
            self._out_of_order[seq] = segment
        # else: duplicate of already-received data; just re-ACK.
        self.stack._post_ack(self)

    def _accept_segment(self, segment: dict) -> None:
        self._rcv_next += segment["len"]
        self._rcv_pending += segment["len"]
        parts = self._assembly
        parts.append(segment["payload"])
        if segment["last"]:
            message = _concat(parts)
            self._assembly = []
            if not self._messages.try_put(message):
                self._messages.put(message)
            if self.stack.tracer.enabled:
                self.stack.tracer.instant(
                    "tcp.msg_rx", category="network", cid=self.cid,
                    bytes=message.size,
                    latency_s=self.env.now - segment["enqueued_at"],
                )

    def _advertised_window(self) -> int:
        return max(0, _BUFFER_BYTES - self._rcv_pending)

    # ----------------------------------------------------------------- ACKs

    def _on_ack(self, frame: dict) -> None:
        ack = frame["ack"]
        self._peer_rwnd = frame["rwnd"]
        if ack > self._snd_base:
            # _inflight's keys are ascending by construction: seq
            # allocation is monotonic, acks pop a prefix, and a
            # retransmission updates its key in place — so the scan
            # for acked segments can stop at the first survivor
            # instead of walking the whole window per ACK.
            newly_acked = []
            for seq, segment in self._inflight.items():
                if seq + segment["len"] > ack:
                    break
                newly_acked.append(seq)
            snd_buffer = self._snd_buffer
            for seq in newly_acked:
                segment = self._inflight.pop(seq)
                if not segment["retransmitted"]:
                    self._update_rtt(self.env.now - segment["sent_at"])
                credit = max(segment["len"], 1)
                if not snd_buffer.try_put(credit):
                    snd_buffer.put(credit)
                self._grow_cwnd(segment["len"])
            self._snd_base = ack
            self._dup_acks = 0
            if self._inflight:
                self._arm_rto()
            # else: a pending timer finds _inflight empty when it
            # fires and disarms itself.
        elif ack == self._snd_base and self._inflight:
            self._dup_acks += 1
            if self._dup_acks == 3:
                self._fast_retransmit()
        self._open_window()

    def _open_window(self) -> None:
        if not self._window_open.triggered:
            self._window_open.succeed()

    def _grow_cwnd(self, acked_bytes: int) -> None:
        if self._cwnd < self._ssthresh:
            self._cwnd += acked_bytes                 # slow start
        else:
            self._cwnd += _MSS * acked_bytes / self._cwnd   # AIMD
        self._cwnd = min(self._cwnd, 64 << 20)

    def _update_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(
                self._srtt - sample
            )
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(_MAX_RTO,
                        max(_MIN_RTO, self._srtt + 4 * self._rttvar))

    def _fast_retransmit(self) -> None:
        self._ssthresh = max(self._cwnd / 2, 2 * _MSS)
        self._cwnd = self._ssthresh + 3 * _MSS
        self._retransmit_base()

    def _retransmit_base(self) -> None:
        segment = self._inflight.get(self._snd_base)
        if segment is None:
            return
        segment["retransmitted"] = True
        self.retransmits.add(1)
        self.stack.tracer.instant(
            "tcp.retransmit", category="network", cid=self.cid,
            seq=segment["seq"], bytes=segment["len"],
        )
        self.env.process(self._resend(segment))

    def _resend(self, segment: dict):
        yield from self.stack._charge_tx(segment["len"])
        yield from self.stack._send_frame(
            segment, segment["len"] + _HEADER_BYTES
        )

    def _arm_rto(self) -> None:
        # Moving the deadline is a float store; a real timer exists
        # only while segments are in flight, and re-sleeps for the
        # remainder when it fires before the (moved) deadline.
        self._rto_deadline = self.env.now + self._rto
        if self._rto_timer is None:
            timer = self.env.timeout(self._rto)
            timer.callbacks.append(self._on_rto)
            self._rto_timer = timer

    def _on_rto(self, _event) -> None:
        self._rto_timer = None
        if not self._inflight:
            return
        remaining = self._rto_deadline - self.env.now
        if remaining > 1e-12:
            timer = self.env.timeout(remaining)
            timer.callbacks.append(self._on_rto)
            self._rto_timer = timer
            return
        # Timeout: multiplicative decrease, back off, retransmit.
        self._ssthresh = max(self._cwnd / 2, 2 * _MSS)
        self._cwnd = float(_MSS)
        self._rto = min(self._rto * 2, _MAX_RTO)
        self._retransmit_base()
        self._arm_rto()

    # ----------------------------------------------------------------- close

    def close(self):
        """Send FIN and mark the connection closed (generator)."""
        if self.closed:
            return
        self.closed = True
        fin = {"proto": "tcp", "kind": "fin", "cid": self.cid,
               "dst": self.remote, "src": self.stack.address,
               "port": self.port}
        yield from self.stack._send_frame(fin, _HEADER_BYTES)


class TcpStack:
    """A TCP/IP stack instance bound to one NIC ingress queue.

    ``mode`` selects the cost profile: ``"kernel"`` charges the host
    kernel-stack rates; ``"dpu"`` charges the optimized userspace-stack
    rates (used by the Network Engine on the DPU's Arm cores).
    """

    def __init__(self, env: Environment, nic: Nic, rx_queue: Store,
                 cpu: CpuCluster, costs: SoftwarePathCosts,
                 name: str = "tcp", mode: str = "kernel",
                 tracer=None):
        if mode not in ("kernel", "dpu"):
            raise ValueError(f"unknown TCP mode {mode!r}")
        self.env = env
        self.nic = nic
        self.cpu = cpu
        self.costs = costs
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if mode == "kernel":
            self._per_msg = costs.tcp_cycles_per_msg
            self._per_byte = costs.tcp_cycles_per_byte
        else:
            self._per_msg = costs.dpu_tcp_cycles_per_msg
            self._per_byte = costs.dpu_tcp_cycles_per_byte
        self._ack_cycles = 0.3 * self._per_msg
        self._listeners: Dict[int, TcpListener] = {}
        self._connections: Dict[int, TcpConnection] = {}
        self.segments_rx = Counter(f"{name}.segments_rx")
        self.segments_tx = Counter(f"{name}.segments_tx")
        # Ingress is a tap on the rx queue: frames dispatch at the
        # instant the NIC delivers them (same simulated time a parked
        # dispatcher process would resume, minus the queue round trip
        # and the process).
        rx_queue.set_tap(
            lambda frame: frame.get("proto") == "tcp",
            self._dispatch_frame,
        )
        # Control frames (ACKs, SYN-ACKs) are queued and sent by one
        # dedicated process instead of spawning a process per frame;
        # the NIC TX serializer imposed FIFO order anyway.
        self._ctrl_queue: Store = Store(env, name=f"{name}.ctrl")
        env.process(self._ctrl_loop(), name=f"{name}-ctrl")
        # Receive-side CPU work is accumulated and drained by a pool of
        # softirq worker processes (one per core, mirroring how a real
        # kernel spreads softirq work) instead of one process per
        # frame.  The busy-time integral charged is identical.
        self._pending_cycles = 0.0
        self._softirq_idle: deque = deque()
        for i in range(cpu.cores):
            env.process(self._softirq_loop(), name=f"{name}-softirq{i}")

    # -- public API -----------------------------------------------------------

    @property
    def address(self) -> Optional[str]:
        """This stack's fabric address (None on point-to-point wires)."""
        return self.nic.address

    def listen(self, port: int) -> TcpListener:
        """Open a passive socket on ``port``."""
        if port in self._listeners:
            raise NetworkError(f"port {port} already in use")
        listener = TcpListener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, port: int, remote: Optional[str] = None,
                timeout_s: Optional[float] = None):
        """Actively open a connection to ``port`` (generator).

        On a switched fabric, ``remote`` names the destination server;
        on a point-to-point wire it may be omitted.  ``timeout_s``
        bounds total establishment time: a blackholed peer raises
        :class:`DeadlineExceededError` once the budget is spent,
        instead of grinding through the full SYN retry schedule.
        """
        cid = self.env.next_id("tcp")
        connection = TcpConnection(self, cid, port, remote=remote)
        self._connections[cid] = connection
        established = self.env.event()
        connection._established = established
        syn = {"proto": "tcp", "kind": "syn", "cid": cid, "port": port,
               "dst": remote, "src": self.address}
        # SYN retransmission with exponential backoff (capped at
        # _MAX_RTO): connection setup must survive a lossy link too.
        syn_timeout = _INIT_RTO
        started = self.env.now
        for _attempt in range(8):
            yield from self._charge_cycles(self._per_msg)
            yield from self._send_frame(syn, _HEADER_BYTES)
            wait_s = syn_timeout
            if timeout_s is not None:
                remaining = timeout_s - (self.env.now - started)
                if remaining <= 0:
                    break
                wait_s = min(wait_s, remaining)
            deadline = self.env.timeout(wait_s)
            yield self.env.any_of([established, deadline])
            if established.triggered:
                return connection
            if timeout_s is not None and \
                    self.env.now - started >= timeout_s:
                break
            syn_timeout = min(syn_timeout * 2, _MAX_RTO)
        if timeout_s is not None:
            raise DeadlineExceededError(
                f"connection to port {port} not established within "
                f"{timeout_s}s",
                deadline_s=timeout_s,
            )
        raise NetworkError(
            f"connection to port {port} timed out (SYN retries "
            "exhausted)"
        )

    # -- frame processing -------------------------------------------------------

    def _dispatch_frame(self, frame: dict) -> None:
        self.segments_rx.value += 1
        kind = frame["kind"]
        if kind == "data":
            self._charge_async(
                self._per_msg + self._per_byte * frame["len"]
            )
            connection = self._connections.get(frame["cid"])
            if connection is not None:
                connection._on_data(frame)
        elif kind == "ack":
            self._charge_async(self._ack_cycles)
            connection = self._connections.get(frame["cid"])
            if connection is not None:
                connection._on_ack(frame)
        elif kind == "syn":
            self._charge_async(self._per_msg)
            self._on_syn(frame)
        elif kind == "synack":
            self._charge_async(self._per_msg)
            connection = self._connections.get(frame["cid"])
            if connection is not None and hasattr(
                    connection, "_established"):
                if not connection._established.triggered:
                    connection._established.succeed()
        elif kind == "fin":
            connection = self._connections.get(frame["cid"])
            if connection is not None:
                connection.closed = True

    def _on_syn(self, frame: dict) -> None:
        listener = self._listeners.get(frame["port"])
        if listener is None:
            return
        cid = frame["cid"]
        if cid in self._connections:
            # Duplicate SYN (our SYN-ACK was lost): just re-ACK.
            pass
        else:
            connection = TcpConnection(self, cid, frame["port"],
                                       remote=frame.get("src"))
            self._connections[cid] = connection
            listener._deliver(connection)
        synack = {"proto": "tcp", "kind": "synack", "cid": cid,
                  "port": frame["port"], "dst": frame.get("src"),
                  "src": self.address}
        self._post_ctrl(synack)

    def _post_ack(self, connection: TcpConnection) -> None:
        ack = {
            "proto": "tcp", "kind": "ack", "cid": connection.cid,
            "dst": connection.remote, "src": self.address,
            "port": connection.port, "ack": connection._rcv_next,
            "rwnd": connection._advertised_window(),
        }
        self._charge_async(self._ack_cycles)
        self._post_ctrl(ack)

    def _post_ctrl(self, frame: dict) -> None:
        # Fire-and-forget, as a one-frame burst starting now, when no
        # control frame is queued or being sent (the ctrl process is
        # parked as the queue's getter) and the TX port is free —
        # ordering among control frames is preserved because any
        # backlog forces the queue path.
        queue = self._ctrl_queue
        if (not queue.items and queue._getters
                and self.nic.transmit_batch_after(
                    0.0, [(frame, _HEADER_BYTES)]) is not None):
            self.segments_tx.value += 1
            return
        if not queue.try_put(frame):
            queue.put(frame)

    def _ctrl_loop(self):
        queue = self._ctrl_queue
        while True:
            frame = yield queue.get()
            # Coalesce every control frame queued at this instant into
            # one NIC burst (the ctrl queue is unbounded, so popping
            # directly never strands a blocked putter).
            frames = [(frame, _HEADER_BYTES)]
            items = queue.items
            while items and len(frames) < _MAX_BURST:
                frames.append((items.popleft(), _HEADER_BYTES))
            self.segments_tx.add(len(frames))
            yield from self.nic.transmit_batch(frames)

    def _send_frame(self, frame: dict, wire_bytes: int):
        self.segments_tx.add(1)
        yield from self.nic.transmit(frame, wire_bytes)

    # -- CPU charging ------------------------------------------------------------

    def _charge_tx(self, payload_bytes: int):
        yield from self._charge_cycles(
            self._per_msg + self._per_byte * payload_bytes
        )

    def _charge_cycles(self, cycles: float):
        # A crashed stack core (fault window on the owning cluster)
        # stalls the data path until the core returns — connections
        # survive the outage instead of dying mid-transfer.
        while True:
            try:
                yield from self.cpu.execute(cycles)
                return
            except FaultInjectedError:
                yield self.env.timeout(_MIN_RTO)

    def _charge_async(self, cycles: float) -> None:
        # Fast path: with no fault injector, a free core, and no work
        # already queued, the charge is one eventless reservation —
        # the core is busy for exactly the burn interval but no
        # scheduler entry exists unless someone queues behind it.
        # Runs with an injector keep the worker path so fault
        # semantics (a downed core drops the batch, a degraded one
        # stretches it) are untouched.
        if self._pending_cycles <= 0.0 and self.cpu.charge_async(cycles):
            return
        self._pending_cycles += cycles
        idle = self._softirq_idle
        if idle:
            # Wake exactly one idle worker; busy workers re-check the
            # accumulator when their current batch finishes.
            idle.popleft().succeed()

    def _softirq_loop(self):
        env = self.env
        while True:
            if self._pending_cycles <= 0.0:
                kick = env.event()
                self._softirq_idle.append(kick)
                yield kick
                continue
            cycles = self._pending_cycles
            self._pending_cycles = 0.0
            try:
                yield from self.cpu.execute(cycles)
            except FaultInjectedError:
                pass    # softirq work lost while the core was down
