"""A FASTER-style key-value store and YCSB-style workload generator.

Section 9 reports integrating DDS with FASTER (a KV store at
Microsoft).  This module provides the equivalent driver: a KV store
whose records live in a hybrid log file on the storage server, so KV
gets/puts become exactly the remote page reads/writes DDS offloads,
plus a YCSB-style request mix generator (zipfian keys, configurable
read fraction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..units import PAGE_SIZE

__all__ = ["KvStoreIndex", "YcsbWorkload", "KvOp"]

_RECORD_SIZE = 256      # bytes per record in the hybrid log

#: YCSB's zipfian skew over the key space
ZIPF_THETA = 0.99


@dataclass(frozen=True)
class KvOp:
    """One KV operation, resolved to its page-level storage access."""

    kind: str          # "get" or "put"
    key: int
    offset: int        # byte offset of the record's page in the log
    size: int


class KvStoreIndex:
    """The in-memory index of a FASTER-like hybrid-log KV store.

    Maps keys to log offsets.  Records are page-resident; a ``get``
    needs one page read at the record's offset, a ``put`` appends to
    the log tail (one page write) and updates the index — exactly the
    access pattern the DDS/FASTER integration offloads.
    """

    def __init__(self, n_keys: int):
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.records_per_page = PAGE_SIZE // _RECORD_SIZE
        # Initially keys live densely in key order.
        self._offsets = {
            key: (key // self.records_per_page) * PAGE_SIZE
            for key in range(n_keys)
        }
        self._tail = self.log_size_bytes()

    def log_size_bytes(self) -> int:
        """Bytes of hybrid log holding the initial key population."""
        pages = (self.n_keys + self.records_per_page - 1) \
            // self.records_per_page
        return pages * PAGE_SIZE

    def get(self, key: int) -> KvOp:
        """Resolve a read to its page access."""
        return KvOp("get", key, self._offsets[key], PAGE_SIZE)

    def put(self, key: int) -> KvOp:
        """Resolve an upsert: append at tail, move the key's offset."""
        offset = self._tail
        self._tail += PAGE_SIZE
        self._offsets[key] = offset
        return KvOp("put", key, offset, PAGE_SIZE)


class YcsbWorkload:
    """A YCSB-style operation stream over a :class:`KvStoreIndex`.

    ``read_fraction=0.95`` is YCSB-B, ``0.5`` is YCSB-A; keys are
    drawn zipfian (approximated by the classic rejection-free inverse
    method) for realistic skew.
    """

    def __init__(self, index: KvStoreIndex, read_fraction: float = 0.95,
                 seed: int = 42):
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.index = index
        self.read_fraction = read_fraction
        self._rng = random.Random(seed)
        n = index.n_keys
        # Standard YCSB zipfian constants.
        self._zetan = sum(1.0 / (i ** ZIPF_THETA)
                          for i in range(1, n + 1))
        self._alpha = 1.0 / (1.0 - ZIPF_THETA)
        self._zeta2 = sum(1.0 / (i ** ZIPF_THETA) for i in (1, 2))
        self._eta = ((1 - (2.0 / n) ** (1 - ZIPF_THETA))
                     / (1 - self._zeta2 / self._zetan)) if n > 1 else 0.0

    def _zipf_key(self) -> int:
        n = self.index.n_keys
        if n == 1:
            return 0
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** ZIPF_THETA:
            return 1
        return int(n * ((self._eta * u - self._eta + 1) ** self._alpha)) \
            % n

    def next_op(self) -> KvOp:
        """Draw the next operation."""
        key = self._zipf_key()
        if self._rng.random() < self.read_fraction:
            return self.index.get(key)
        return self.index.put(key)

    def ops(self, count: int) -> Iterator[KvOp]:
        """A finite stream of operations."""
        if count < 0:
            raise ValueError("negative op count")
        for _ in range(count):
            yield self.next_op()
