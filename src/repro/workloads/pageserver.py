"""A cloud-native DBMS page-server workload (Socrates/Aurora-style).

Section 7/9's motivating non-offloadable workload: storage servers
that apply transaction log records to pages ("log replay") while
serving page reads to compute nodes.  Log replay needs a large hot-
page working set ("100s of GB … an order of magnitude larger than DPU
memory"), which is why DDS must split traffic between DPU and host.

The generator emits a stream of remote requests: ``GetPage`` reads
(offloadable) and ``ApplyLog`` updates (host-only, each pinning
working-set memory), with a configurable mix and a fixed 80/20 skew.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..units import MiB, PAGE_SIZE

__all__ = ["PageServerWorkload", "PageRequest"]

#: share of page accesses that hit the hottest 20% of pages
SKEW = 0.8


@dataclass(frozen=True)
class PageRequest:
    """One remote request against the page server."""

    kind: str              # "get_page" or "apply_log"
    page_index: int
    offset: int
    size: int
    working_set: int = 0   # bytes of replay context (apply_log only)


class PageServerWorkload:
    """Request mix for a disaggregated page server."""

    def __init__(self, database_pages: int = 131_072,   # 1 GiB of pages
                 read_fraction: float = 0.9,
                 replay_working_set_bytes: int = 64 * MiB,
                 seed: int = 7):
        if database_pages < 1:
            raise ValueError("database needs pages")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.database_pages = database_pages
        self.read_fraction = read_fraction
        self.replay_working_set_bytes = replay_working_set_bytes
        self._rng = random.Random(seed)

    def _page(self) -> int:
        # 80/20-style skew: SKEW of accesses hit 20% of pages.
        if self._rng.random() < SKEW:
            return self._rng.randrange(
                max(1, self.database_pages // 5)
            )
        return self._rng.randrange(self.database_pages)

    def next_request(self) -> PageRequest:
        """Draw the next remote request."""
        page = self._page()
        if self._rng.random() < self.read_fraction:
            return PageRequest("get_page", page, page * PAGE_SIZE,
                               PAGE_SIZE)
        return PageRequest(
            "apply_log", page, page * PAGE_SIZE, PAGE_SIZE,
            working_set=self.replay_working_set_bytes,
        )

    def requests(self, count: int) -> Iterator[PageRequest]:
        """A finite stream of ``count`` requests."""
        if count < 0:
            raise ValueError("negative request count")
        for _ in range(count):
            yield self.next_request()
