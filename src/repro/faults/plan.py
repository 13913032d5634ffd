"""Declarative, seeded fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultWindow` entries plus a
seed.  Each window names a *site pattern* (fnmatch-style, matched
against the dotted site strings the hardware hooks report), a fault
*kind*, a sim-time interval, and a per-operation probability.

Site naming convention (what the built-in hooks emit):

====================================  =================================
site                                  emitted by
====================================  =================================
``ssd.<device>.read`` / ``.write``    :class:`~repro.hardware.ssd.Ssd`
``wire``                              :class:`~repro.hardware.nic.Wire`
``cpu.<cluster>``                     :class:`~repro.hardware.cpu.CpuCluster`
``accel.<dpu>.<kind>``                :class:`~repro.hardware.accelerator.Accelerator`
``ring.<name>``                       :class:`~repro.netstack.ringbuffer.RingBuffer`
``journal.<name>``                    :class:`~repro.fs.journal.Journal`
====================================  =================================

Fault kinds:

``error``   the operation raises :class:`FaultInjectedError`
``delay``   the operation takes ``magnitude`` extra seconds
``drop``    the frame is silently dropped (wire sites)
``down``    the component is unavailable for the whole window
            (link flap, accelerator offline, Arm-core crash,
            ring stall — state, not a per-op roll)
``slow``    work is stretched by ``magnitude``x (CPU slowdown)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import List

__all__ = ["FaultWindow", "FaultPlan", "KINDS", "default_fault_plan"]

KINDS = ("error", "delay", "drop", "down", "slow")


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault: a site pattern active over a sim interval."""

    site: str                       # fnmatch pattern over site names
    kind: str                       # one of KINDS
    start_s: float = 0.0
    end_s: float = float("inf")
    probability: float = 1.0        # per-op chance inside the window
    magnitude: float = 0.0          # delay seconds / slowdown factor

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {KINDS}"
            )
        if self.end_s < self.start_s:
            raise ValueError(
                f"window ends before it starts: "
                f"[{self.start_s}, {self.end_s}]"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability {self.probability} outside [0, 1]"
            )
        if self.kind == "slow" and self.magnitude < 1.0:
            raise ValueError("slowdown magnitude must be >= 1.0")
        if self.kind == "delay" and self.magnitude < 0.0:
            raise ValueError("delay magnitude cannot be negative")

    def active(self, now: float) -> bool:
        """Whether the window covers simulated time ``now``."""
        return self.start_s <= now < self.end_s

    def matches(self, site: str) -> bool:
        """Whether this window applies to a concrete ``site``."""
        return fnmatchcase(site, self.site)


@dataclass
class FaultPlan:
    """A seeded schedule of fault windows.

    The seed feeds the injector's per-site RNG streams; two runs with
    the same plan therefore make byte-identical fault decisions.
    """

    seed: int = 0
    windows: List[FaultWindow] = field(default_factory=list)

    def add(self, site: str, kind: str, start_s: float = 0.0,
            end_s: float = float("inf"), probability: float = 1.0,
            magnitude: float = 0.0) -> "FaultPlan":
        """Append a window (chainable)."""
        self.windows.append(FaultWindow(site, kind, start_s, end_s,
                                        probability, magnitude))
        return self

    # -- convenience builders (the fault families the tentpole names) ----

    def ssd_errors(self, probability: float, start_s: float = 0.0,
                   end_s: float = float("inf")) -> "FaultPlan":
        """Per-I/O read/write failures on every SSD."""
        return self.add("ssd.*", "error", start_s, end_s, probability)

    def ssd_latency_spike(self, extra_s: float, probability: float = 1.0,
                          start_s: float = 0.0,
                          end_s: float = float("inf")) -> "FaultPlan":
        """Extra per-I/O latency on every SSD."""
        return self.add("ssd.*", "delay", start_s, end_s, probability,
                        magnitude=extra_s)

    def packet_loss(self, probability: float, start_s: float = 0.0,
                    end_s: float = float("inf")) -> "FaultPlan":
        """Per-frame drops on every wire."""
        return self.add("wire*", "drop", start_s, end_s, probability)

    def link_flap(self, start_s: float, end_s: float) -> "FaultPlan":
        """A full link outage: every frame dropped in the window."""
        return self.add("wire*", "down", start_s, end_s)

    def cpu_crash(self, start_s: float, end_s: float,
                  site: str = "cpu.*.dpu.cpu") -> "FaultPlan":
        """Arm-core crash: execution raises for the whole window."""
        return self.add(site, "down", start_s, end_s)

    def cpu_slowdown(self, factor: float, start_s: float = 0.0,
                     end_s: float = float("inf"),
                     site: str = "cpu.*.dpu.cpu") -> "FaultPlan":
        """Arm-core slowdown: cycles stretched by ``factor``."""
        return self.add(site, "slow", start_s, end_s,
                        magnitude=factor)

    def accelerator_down(self, kind: str, start_s: float,
                         end_s: float) -> "FaultPlan":
        """An ASIC of ``kind`` unavailable for the window."""
        return self.add(f"accel.*.{kind}", "down", start_s, end_s)

    def ring_stall(self, start_s: float, end_s: float,
                   site: str = "ring.*") -> "FaultPlan":
        """Ring-buffer stall: pushes fail for the whole window."""
        return self.add(site, "down", start_s, end_s)

    # -- introspection ---------------------------------------------------

    def windows_for(self, site: str) -> List[FaultWindow]:
        """Windows whose pattern matches a concrete ``site``."""
        return [w for w in self.windows if w.matches(site)]


def default_fault_plan(seed: int = 0,
                       duration_s: float = 0.01) -> FaultPlan:
    """The availability experiment's reference chaos schedule.

    Scaled to a ``duration_s``-long run: transient SSD errors and a
    latency-spike window, a mid-run DPU Arm-core crash followed by a
    slowdown (the recovering core), a link flap, an accelerator
    outage, and a short ring stall.  Every family the tentpole names
    is represented, so recovery machinery gets exercised end to end.
    """
    plan = FaultPlan(seed=seed)
    # Transient SSD read errors across the middle of the run.
    plan.ssd_errors(0.08, start_s=0.1 * duration_s,
                    end_s=0.9 * duration_s)
    # A latency spike burst (firmware GC pause flavour).
    plan.ssd_latency_spike(150e-6, probability=0.3,
                           start_s=0.2 * duration_s,
                           end_s=0.35 * duration_s)
    # The DPU's Arm cores crash for a stretch, then run degraded.
    plan.cpu_crash(start_s=0.4 * duration_s, end_s=0.55 * duration_s)
    plan.cpu_slowdown(3.0, start_s=0.55 * duration_s,
                      end_s=0.7 * duration_s)
    # A link flap plus background packet loss.
    plan.link_flap(start_s=0.75 * duration_s, end_s=0.78 * duration_s)
    plan.packet_loss(0.01, start_s=0.0, end_s=duration_s)
    # Compression ASIC offline for a window.
    plan.accelerator_down("compression", start_s=0.3 * duration_s,
                          end_s=0.5 * duration_s)
    # A short submission-ring stall.
    plan.ring_stall(start_s=0.6 * duration_s,
                    end_s=0.62 * duration_s, site="ring.*.sq")
    return plan
