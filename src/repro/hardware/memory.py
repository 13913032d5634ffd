"""Memory region model.

Models *capacity*, not contents: the DPU's 16 GB of onboard DRAM is the
binding constraint in Section 7 ("log replay can consume 100s of GB …
an order of magnitude larger than DPU memory"), so what matters is who
allocated how much, and what happens when an allocation does not fit.

Allocations can be blocking (``yield region.allocate(n)`` waits for
space) or immediate (``try_allocate`` returns False when full) — the SE
offload engine uses the latter to decide host fallback.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CapacityError
from ..sim import Container, Environment

__all__ = ["MemoryRegion", "Allocation"]


class Allocation:
    """A live claim on part of a :class:`MemoryRegion`."""

    __slots__ = ("region", "nbytes", "tag", "freed")

    def __init__(self, region: "MemoryRegion", nbytes: int, tag: str):
        self.region = region
        self.nbytes = nbytes
        self.tag = tag
        self.freed = False

    def free(self) -> None:
        """Return the bytes to the region (idempotent)."""
        if not self.freed:
            self.freed = True
            self.region._release(self.nbytes)

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.free()

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"Allocation({self.nbytes} bytes, {self.tag!r}, {state})"


class MemoryRegion:
    """A fixed-capacity pool of bytes with allocation accounting."""

    def __init__(self, env: Environment, capacity_bytes: int,
                 name: str = "memory"):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity_bytes = int(capacity_bytes)
        self.name = name
        self._free = Container(env, capacity=capacity_bytes,
                               init=capacity_bytes, name=name)

    @property
    def used_bytes(self) -> int:
        return self.capacity_bytes - int(self._free.level)

    @property
    def free_bytes(self) -> int:
        return int(self._free.level)

    def fits(self, nbytes: int) -> bool:
        """Whether an allocation of ``nbytes`` would succeed right now."""
        return 0 <= nbytes <= self.free_bytes

    def try_allocate(self, nbytes: int,
                     tag: str = "") -> Optional[Allocation]:
        """Allocate without blocking; ``None`` if it does not fit."""
        self._validate(nbytes)
        if not self.fits(nbytes):
            return None
        if nbytes > 0:
            # Container.get succeeds synchronously when level suffices.
            self._free.get(nbytes)
        return Allocation(self, nbytes, tag)

    def allocate(self, nbytes: int, tag: str = ""):
        """Blocking allocation (generator): waits until space frees up."""
        self._validate(nbytes)
        if nbytes > self.capacity_bytes:
            raise CapacityError(
                f"{self.name}: {nbytes} bytes exceeds region capacity "
                f"{self.capacity_bytes}"
            )
        if nbytes > 0:
            yield self._free.get(nbytes)
        return Allocation(self, nbytes, tag)

    def _release(self, nbytes: int) -> None:
        if nbytes > 0:
            self._free.put(nbytes)

    @staticmethod
    def _validate(nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")

    def __repr__(self) -> str:
        return (
            f"MemoryRegion({self.name}: {self.used_bytes}/"
            f"{self.capacity_bytes} bytes used)"
        )
