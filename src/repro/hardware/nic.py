"""Network interface model.

A :class:`Nic` models the ConnectX-class interface on a DPU: a given
line rate, full-duplex, with per-direction serialization queues.  It
carries opaque frames; protocol behaviour (TCP windows, RDMA verbs)
lives in :mod:`repro.netstack` on top of a :class:`Wire` connecting two
NICs.

Match-action offload is modelled by :class:`FlowTable`: the SE traffic
director installs rules that steer incoming frames to the DPU or the
host without burning CPU cycles, mirroring OVS-style hardware steering.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..sim import Environment, Resource, Store
from ..sim.stats import Counter

__all__ = ["Nic", "Wire", "FlowTable"]

#: a port's fixed latency, pipelined behind serialization
PORT_LATENCY_S = 1e-6

#: a cable's propagation delay
PROPAGATION_DELAY_S = 2e-6


class FlowRule:
    """One match-action entry: predicate, action, hit counter."""

    __slots__ = ("name", "predicate", "action", "hits")

    def __init__(self, name: str, predicate: Callable[[Any], bool],
                 action: str):
        self.name = name
        self.predicate = predicate
        self.action = action
        self.hits = 0

    def __repr__(self) -> str:
        return (f"FlowRule({self.name!r} -> {self.action}, "
                f"hits={self.hits})")


class FlowTable:
    """Hardware match-action table for ingress steering.

    Rules are evaluated in insertion order; the first match wins and
    a frame no rule matches goes to the host.  Per-rule hit
    counters make the steering auditable (the traffic director's Q2
    instrumentation).
    """

    def __init__(self):
        self._rules: List[FlowRule] = []

    def add_rule(self, predicate: Callable[[Any], bool],
                 action: str, name: str = "") -> FlowRule:
        """Install a steering rule; returns it for inspection."""
        rule = FlowRule(name or f"rule{len(self._rules)}",
                        predicate, action)
        self._rules.append(rule)
        return rule

    def remove_rule(self, name: str) -> bool:
        """Uninstall a rule by name; True if it existed."""
        for index, rule in enumerate(self._rules):
            if rule.name == name:
                del self._rules[index]
                return True
        return False

    def classify(self, frame: Any) -> str:
        """Return the action tag for ``frame``."""
        for rule in self._rules:
            if rule.predicate(frame):
                rule.hits += 1
                return rule.action
        return "host"

    def __len__(self) -> int:
        return len(self._rules)


class Nic:
    """One network port with TX serialization and an RX dispatcher."""

    def __init__(self, env: Environment, bandwidth_bps: float,
                 name: str = "nic"):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bytes_per_s = bandwidth_bps / 8.0
        self.port_latency_s = PORT_LATENCY_S
        self.name = name
        self._tx = Resource(env, capacity=1, name=f"{name}.tx")
        self.flow_table = FlowTable()
        #: per-destination ingress queues filled by the wire:
        #: "host" frames go to rx_host, "dpu" frames to rx_dpu.
        self.rx_host: Store = Store(env, name=f"{name}.rx_host")
        self.rx_dpu: Store = Store(env, name=f"{name}.rx_dpu")
        self.tx_bytes = Counter(f"{name}.tx_bytes")
        self.rx_bytes = Counter(f"{name}.rx_bytes")
        self.tx_frames = Counter(f"{name}.tx_frames")
        #: the Wire or Switch this port plugs into
        self.wire = None
        #: fabric address; assigned by Switch.attach (None on a Wire)
        self.address: Optional[str] = None

    def serialization_time(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire at line rate."""
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes}")
        return nbytes / self.bytes_per_s

    def transmit(self, frame: Any, nbytes: int):
        """Send a frame onto the wire (generator).

        The TX queue is held only for serialization; port latency is
        pipelined (it delays this frame without blocking the next).

        Hot path: an uncontended TX serializer is held via
        :meth:`Resource.hold` — one scheduler entry acquires, clocks
        the frame out, and releases, instead of a request event plus
        a release on resume.
        """
        if self.wire is None:
            raise RuntimeError(f"{self.name} is not connected to a wire")
        serialization = self.serialization_time(nbytes)
        # Not Resource.occupy: on a switch the hold must outlive the
        # port-latency timer below, or the timeout pool reuses it
        # sooner and moves hostbench's pinned pool_hit_ratio.
        hold = self._tx.hold(serialization)
        if hold is not None:
            yield hold
        else:
            with self._tx.request() as req:
                yield req
                yield self.env.timeout(serialization)
        self.tx_bytes.value += nbytes
        self.tx_frames.value += 1
        carry_at = self.wire.carry_at
        if carry_at is not None:
            # Port latency folds into the flight delay: the frame
            # arrives at the same instant, without parking the sender
            # on an extra timer (it is pipelined regardless).
            carry_at(self, frame, nbytes, self.port_latency_s)
            return
        yield self.env.timeout(self.port_latency_s)
        self.wire.carry(self, frame, nbytes)

    def transmit_batch(self, frames: List[Tuple[Any, int]]):
        """Send several frames back-to-back (generator).

        The TX serializer is held once for the whole burst and each
        frame is delivered at its own serialization boundary — the
        wire sees frames at exactly the spacing a loop of
        :meth:`transmit` calls with no work in between would produce,
        but the sender pays one scheduler entry instead of three per
        frame.  Falls back to sequential transmits when the wire does
        not support scheduled delivery or the serializer is busy.
        """
        if len(frames) == 1:
            yield from self.transmit(*frames[0])
            return
        if self.wire is None:
            raise RuntimeError(f"{self.name} is not connected to a wire")
        carry_at = self.wire.carry_at
        rate = self.bytes_per_s
        total = 0.0
        for _frame, nbytes in frames:
            total += nbytes / rate
        hold = self._tx.hold(total) if carry_at is not None else None
        if hold is None:
            for frame, nbytes in frames:
                yield from self.transmit(frame, nbytes)
            return
        boundary = 0.0
        port = self.port_latency_s
        tx_bytes = self.tx_bytes.value
        for frame, nbytes in frames:
            boundary += nbytes / rate
            tx_bytes += nbytes
            carry_at(self, frame, nbytes, boundary + port)
        self.tx_bytes.value = tx_bytes
        self.tx_frames.value += len(frames)
        yield hold

    def transmit_batch_after(self, delay: float,
                             frames: List[Tuple[Any, int]]) -> Optional[float]:
        """Schedule a burst that starts serializing ``delay`` from now.

        Eventless companion to :meth:`transmit_batch` for senders that
        have a CPU charge (or similar pure delay) between *now* and
        the first byte on the wire: the whole burst is scheduled up
        front — every frame arrives at exactly the instant the
        charge-then-transmit sequence would deliver it — and the TX
        serializer is reserved without a scheduler entry.  Returns the
        total time until the last byte is clocked out (``delay`` +
        serialization), which the caller sleeps in a single timeout;
        ``None`` when the wire cannot schedule delivery or the
        serializer is contended (callers fall back to the evented
        path).  The reservation covers the serialization total
        starting now rather than after ``delay`` — the busy integral
        and pacing are identical, with the window shifted earlier by
        the (sub-microsecond) charge time.
        """
        if self.wire is None:
            raise RuntimeError(f"{self.name} is not connected to a wire")
        carry_at = self.wire.carry_at
        if carry_at is None:
            return None
        rate = self.bytes_per_s
        total = 0.0
        for _frame, nbytes in frames:
            total += nbytes / rate
        if not self._tx.reserve(total):
            return None
        boundary = 0.0
        port = self.port_latency_s
        tx_bytes = self.tx_bytes.value
        for frame, nbytes in frames:
            boundary += nbytes / rate
            tx_bytes += nbytes
            carry_at(self, frame, nbytes, delay + boundary + port)
        self.tx_bytes.value = tx_bytes
        self.tx_frames.value += len(frames)
        return delay + total

    def deliver(self, frame: Any, nbytes: int) -> None:
        """Called by the wire when a frame arrives at this NIC.

        The flow table classifies the frame and places it in the
        matching ingress queue — this steering costs no CPU.  The
        queues are unbounded, so :meth:`Store.try_put` (which feeds a
        matching tap first) never refuses and no event is made.
        """
        self.rx_bytes.value += nbytes
        action = self.flow_table.classify(frame)
        store = self.rx_dpu if action == "dpu" else self.rx_host
        store.try_put(frame)


class Wire:
    """A point-to-point full-duplex cable between two NICs.

    Lossless, except while a fault injector's ``down`` window (a link
    flap) covers the ``wire`` site: every frame departing then is lost.
    """

    def __init__(self, env: Environment, nic_a: Nic, nic_b: Nic):
        self.env = env
        self.propagation_delay_s = PROPAGATION_DELAY_S
        self.frames_dropped = Counter("wire.drops")
        #: optional FaultInjector; site "wire" (link flaps)
        self.injector = None
        self._ends = {id(nic_a): nic_b, id(nic_b): nic_a}
        nic_a.wire = self
        nic_b.wire = self

    def carry_at(self, sender: Nic, frame: Any, nbytes: int,
                 extra_delay: float) -> None:
        """Propagate a frame to the opposite end, arriving the flight
        delay plus ``extra_delay`` from now.

        Batched transmits schedule every frame of a burst up front;
        each frame meets the link state of its own departure, the
        instant it finishes serializing (``extra_delay`` less the
        sender's port latency from now).
        """
        receiver = self._ends.get(id(sender))
        if receiver is None:
            raise RuntimeError("sender is not attached to this wire")
        if self.injector is not None and self.injector.is_down(
                "wire", at=self.env.now
                + (extra_delay - sender.port_latency_s)):
            self.frames_dropped.add(1)
            return
        timer = self.env.timeout(extra_delay + self.propagation_delay_s,
                                 (receiver, frame, nbytes))
        timer.callbacks.append(_arrive)


def _arrive(timer) -> None:
    """A wire timer's one callback: hand its frame to the receiver.

    The value is dropped first, so a timer the environment recycles
    does not keep the frame alive.
    """
    receiver, frame, nbytes = timer._value
    timer._value = None
    receiver.deliver(frame, nbytes)
