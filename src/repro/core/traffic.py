"""The traffic director (DDS question Q2, Section 9).

"The second question is handled with a traffic director that
determines whether each packet should be forwarded to DDS on the DPU
or the endpoint on the host.  It accomplishes the task without
breaking end-to-end transport semantics."

Two layers implement that here:

* **packet level** (this class) — named match-action rules in the
  NIC's hardware flow table steer frames to the DPU or host ingress
  queues at zero CPU cost, with per-rule hit counters;
* **request level** (:class:`~repro.core.dds.DdsServer`) — requests
  the DPU cannot serve are forwarded after UDF parsing, and responses
  re-serialize per connection, preserving transport semantics.
"""

from __future__ import annotations

from typing import Optional

from ..faults.recovery import CircuitBreaker
from ..hardware.nic import FlowRule, Nic
from ..obs.trace import NULL_TRACER
from ..sim.stats import Counter

__all__ = ["TrafficDirector"]

_FAILOVER_RULE = "breaker:failover"


class TrafficDirector:
    """Named, auditable ingress steering for one NIC."""

    def __init__(self, nic: Nic):
        self.nic = nic
        #: the breaker guarding the DPU path (None until protect())
        self.breaker: Optional[CircuitBreaker] = None
        #: set by Telemetry.register_runtime when telemetry is wired
        self.tracer = NULL_TRACER
        self.failovers = Counter("traffic.failovers")

    # -- rule management ------------------------------------------------------

    def steer_protocol(self, proto: str, target: str = "dpu",
                       name: str = "") -> FlowRule:
        """Steer all frames of a protocol (e.g. ``"tcp"``)."""
        self._check_target(target)
        return self.nic.flow_table.add_rule(
            lambda frame, proto=proto: frame.get("proto") == proto,
            target, name=name or f"proto:{proto}->{target}",
        )

    def steer_tcp_port(self, port: int, target: str = "dpu",
                       name: str = "") -> FlowRule:
        """Steer one TCP service port (finer-grained than protocol).

        Port rules must be installed *before* protocol-wide rules to
        win (first match); :meth:`steer_tcp_port` inserts by
        re-building the table with the port rule first when needed.
        """
        self._check_target(target)
        rule = FlowRule(
            name or f"tcp:{port}->{target}",
            lambda frame, port=port: (
                frame.get("proto") == "tcp"
                and frame.get("port") == port
            ),
            target,
        )
        table = self.nic.flow_table
        table._rules.insert(0, rule)
        return rule

    @staticmethod
    def _check_target(target: str) -> None:
        if target not in ("dpu", "host"):
            raise ValueError(f"unknown steering target {target!r}")

    # -- failover (the recovery layer's DPU -> host breaker) -------------------

    def protect(self, env, **breaker_kwargs) -> CircuitBreaker:
        """Guard the DPU path with a circuit breaker.

        Callers report DPU-path outcomes on the returned breaker
        (``record_success`` / ``record_failure``); when it trips, a
        match-all rule is prepended so *every* frame steers to the
        host.  Failover is one-way for the rest of the run: the
        breaker closing again does not take the rule out, so a node
        whose crash window ends is never re-admitted
        (``docs/ROBUSTNESS.md`` § Findings, Finding 5).  Transport
        semantics are preserved — the flow table only changes which
        ingress queue (and therefore which endpoint stack) serves the
        connection.
        """
        if self.breaker is not None:
            return self.breaker
        self.breaker = CircuitBreaker(
            env, on_open=self._fail_over, name="traffic.breaker",
            **breaker_kwargs,
        )
        return self.breaker

    def _fail_over(self) -> None:
        table = self.nic.flow_table
        table.remove_rule(_FAILOVER_RULE)       # re-trip from half-open
        table._rules.insert(
            0, FlowRule(_FAILOVER_RULE, lambda frame: True, "host")
        )
        self.failovers.add(1)
        self.tracer.instant("traffic.failover", category="fault",
                            target="host")
