"""The runtime fault injector the hardware hooks consult.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a simulation.  Components that accept an ``injector=`` keyword call
one of three entry points:

* ``yield from injector.perturb(site)`` — per-operation faults: adds
  scheduled delay, then raises :class:`FaultInjectedError` when an
  error window's roll hits.  Generator, so it composes with the
  device's own timing;
* ``injector.is_down(site)`` — state check for ``down`` windows (link
  flaps, crashed Arm cores, offline ASICs, stalled rings);
* ``injector.should_drop(site)`` / ``injector.slowdown(site)`` —
  per-frame drop rolls and CPU stretch factors.

Determinism: every concrete site gets its own ``random.Random`` seeded
from ``crc32(f"{plan.seed}:{site}")``, so (a) the same run replays the
same decisions, and (b) adding a window for one site never perturbs
another site's roll sequence.

Fault injection off is ``injector is None``: every hook guards with
``if injector is not None``, so a plain run makes no injector call.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Optional

from ..errors import FaultInjectedError
from ..sim.stats import Counter
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Deterministic per-site fault decisions against one plan."""

    def __init__(self, env, plan: Optional[FaultPlan] = None):
        self.env = env
        self.plan = plan or FaultPlan()
        self._rngs: Dict[str, random.Random] = {}
        #: site -> windows cache (site universe is small and stable)
        self._site_windows: Dict[str, list] = {}
        self.injected = Counter("faults.injected")
        self.errors = Counter("faults.errors")
        self.delays = Counter("faults.delays")
        self.drops = Counter("faults.drops")
        self.downs = Counter("faults.down_hits")
        #: per-site injection counts for reports/tests
        self.by_site: Dict[str, int] = {}

    # -- plumbing ---------------------------------------------------------

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            stream = zlib.crc32(f"{self.plan.seed}:{site}".encode())
            rng = random.Random(stream)
            self._rngs[site] = rng
        return rng

    def _windows(self, site: str) -> list:
        windows = self._site_windows.get(site)
        if windows is None:
            windows = self.plan.windows_for(site)
            self._site_windows[site] = windows
        return windows

    def _active(self, site: str, kind: str):
        now = self.env.now
        for window in self._windows(site):
            if window.kind == kind and window.active(now):
                yield window

    def _record(self, site: str) -> None:
        self.injected.add(1)
        self.by_site[site] = self.by_site.get(site, 0) + 1

    # -- the hook API ------------------------------------------------------

    def perturb(self, site: str):
        """Per-operation faults for ``site`` (generator).

        Applies every active ``delay`` window whose roll hits, then
        raises :class:`FaultInjectedError` if an active ``error``
        window's roll hits.  Call where the device would do the work.
        """
        rng = self._rng(site)
        for window in self._active(site, "delay"):
            if window.probability >= 1.0 or \
                    rng.random() < window.probability:
                self.delays.add(1)
                self._record(site)
                yield self.env.timeout(window.magnitude)
        for window in self._active(site, "error"):
            if window.probability >= 1.0 or \
                    rng.random() < window.probability:
                self.errors.add(1)
                self._record(site)
                raise FaultInjectedError(
                    f"injected {site} error at t={self.env.now:.6f}",
                    site=site, kind="error",
                )

    def is_down(self, site: str) -> bool:
        """Whether a ``down`` window currently covers ``site``."""
        for window in self._active(site, "down"):
            self.downs.add(1)
            self._record(site)
            return True
        return False

    def should_drop(self, site: str) -> bool:
        """Per-frame decision for wire sites: drop this frame?

        ``down`` windows drop everything; ``drop`` windows roll the
        site RNG against their probability.
        """
        for window in self._active(site, "down"):
            self.drops.add(1)
            self._record(site)
            return True
        rng = self._rng(site)
        for window in self._active(site, "drop"):
            if window.probability >= 1.0 or \
                    rng.random() < window.probability:
                self.drops.add(1)
                self._record(site)
                return True
        return False

    def slowdown(self, site: str) -> float:
        """The combined stretch factor of active ``slow`` windows."""
        factor = 1.0
        for window in self._active(site, "slow"):
            factor *= window.magnitude
        return factor

    # -- installation ------------------------------------------------------

    def install(self, server) -> None:
        """Attach this injector to a server's fault-capable hardware.

        Covers the host and DPU CPU clusters, every SSD, the DPU's
        accelerators, and (when the NIC is wired) the wire.  Engines
        built later (rings, journals) accept ``injector=`` directly.
        """
        for ssd in server.ssds:
            ssd.injector = self
        server.host_cpu.injector = self
        if server.dpu is not None:
            dpu = server.dpu
            dpu.cpu.injector = self
            for accelerator in dpu.accelerators.values():
                accelerator.injector = self
        if getattr(server.nic, "wire", None) is not None:
            server.nic.wire.injector = self

    def __repr__(self) -> str:
        return (f"FaultInjector(seed={self.plan.seed}, "
                f"{len(self.plan.windows)} windows, "
                f"{int(self.injected.value)} injected)")
