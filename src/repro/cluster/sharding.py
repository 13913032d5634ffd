"""Consistent-hash shard placement (the cluster's determinism core).

Tenant data (KV hybrid logs, page-server databases) is split into
``n_shards`` fixed shards; shards are placed onto nodes with a
consistent-hash ring (``replicas`` virtual points per node).  Two
properties make the cluster layer testable and migration cheap:

* **Determinism** — every hash is ``zlib.crc32`` over stable strings,
  never Python's salted ``hash()``.  The same ``(nodes, n_shards,
  replicas)`` triple produces the same placement in every process,
  which is what lets ``--jobs N`` benchmark runs stay byte-identical
  and lets a test predict where a key lives.
* **Minimal movement** — removing a node moves *only* that node's
  shards (they slide to the next points on the ring); every other
  shard keeps its owner.  :meth:`plan_without` returns exactly that
  delta, and the rebalancer migrates nothing else.

Failover cutover is per-shard: while a shard's data is being copied
off a failed node, :meth:`set_override` repoints just that shard, so
routers and clients observing :attr:`version` pick up each shard the
moment it lands, not when the whole node finishes draining.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, List, Sequence, Tuple

from ..units import PAGE_SIZE

__all__ = ["ShardMap", "stable_hash"]

#: bytes in one shard's backing file
SHARD_BYTES = 16 * PAGE_SIZE


def stable_hash(text: str) -> int:
    """A process-stable 32-bit hash (crc32; never builtin ``hash``)."""
    return zlib.crc32(text.encode())


class ShardMap:
    """Shard → node placement over a consistent-hash ring."""

    def __init__(self, n_shards: int = 32,
                 nodes: Sequence[str] = (),
                 replicas: int = 64):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one virtual point per node")
        self.n_shards = n_shards
        self.replicas = replicas
        self._nodes: List[str] = []
        #: sorted (point, node) ring
        self._ring: List[Tuple[int, str]] = []
        #: per-shard cutover overrides (migration in progress/landed)
        self._overrides: Dict[int, str] = {}
        #: hot-shard splits: shard -> (boundary offset, high owner);
        #: offsets >= boundary are served by the high owner
        self._splits: Dict[int, Tuple[int, str]] = {}
        #: bumped on every placement change; clients poll this
        self.version = 0
        for node in nodes:
            self.add_node(node)

    # -- ring maintenance --------------------------------------------------

    def _rebuild(self) -> None:
        self._ring = sorted(
            (stable_hash(f"{node}#{replica}"), node)
            for node in self._nodes
            for replica in range(self.replicas)
        )
        self.version += 1

    def add_node(self, node: str) -> None:
        """Add a node to the ring."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already in the map")
        self._nodes.append(node)
        self._rebuild()

    def remove_node(self, node: str) -> None:
        """Drop a node and any overrides now implied by the ring."""
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not in the map")
        self._nodes.remove(node)
        self._rebuild()
        # Overrides that now agree with the ring are redundant.
        for shard in [s for s, owner in self._overrides.items()
                      if self._ring_owner(s) == owner]:
            del self._overrides[shard]
        # A split whose high half lived on the removed node collapses
        # back onto the base owner (its data is a replica file that
        # every node pre-creates, so no placement is dangling).
        for shard in [s for s, (_, high) in self._splits.items()
                      if high == node]:
            del self._splits[shard]

    def join_node(self, node: str) -> Dict[int, str]:
        """Add ``node`` to the ring *without* moving any data yet.

        Consistent hashing hands the new node a subset of shards; this
        pins each of those to its **previous** owner with an override,
        so routing is unchanged until a migration actually lands and
        :meth:`set_override` cuts the shard over.  Returns the
        migration plan:
        ``{shard: previous owner}`` for exactly the shards the ring
        now wants on ``node``.
        """
        before = {shard: self.owner_of_shard(shard)
                  for shard in range(self.n_shards)}
        self.add_node(node)
        plan: Dict[int, str] = {}
        for shard in range(self.n_shards):
            if shard in self._overrides:
                continue  # already pinned by an earlier migration
            if self._ring_owner(shard) == node \
                    and before[shard] != node:
                self._overrides[shard] = before[shard]
                plan[shard] = before[shard]
        if plan:
            self.version += 1
        return plan

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    # -- placement ---------------------------------------------------------

    def shard_of(self, key: int) -> int:
        """The shard a key belongs to (stable across processes)."""
        return stable_hash(f"key:{key}") % self.n_shards

    def _ring_owner(self, shard: int) -> str:
        if not self._ring:
            raise ValueError("shard map has no nodes")
        point = stable_hash(f"shard:{shard}")
        index = bisect.bisect_right(self._ring, (point, chr(0x10FFFF)))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def owner_of_shard(self, shard: int,
                       offset: int = None) -> str:
        """The node currently serving ``shard`` (overrides win).

        For a split shard, ``offset`` (shard-relative bytes) picks
        the half: offsets at or past the split boundary are served by
        the high owner.  Callers that don't pass an offset get the
        base owner — correct for unsplit shards and for control-plane
        operations (migration pulls the whole shard).
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} outside "
                             f"[0, {self.n_shards})")
        split = self._splits.get(shard)
        if (split is not None and offset is not None
                and offset >= split[0]):
            return split[1]
        override = self._overrides.get(shard)
        if override is not None:
            return override
        return self._ring_owner(shard)

    def assignment(self) -> Dict[str, List[int]]:
        """node → sorted owned shards (every shard appears once)."""
        placed: Dict[str, List[int]] = {node: [] for node in self._nodes}
        for shard in range(self.n_shards):
            owner = self.owner_of_shard(shard)
            placed.setdefault(owner, []).append(shard)
        return placed

    # -- migration support -------------------------------------------------

    def plan_without(self, node: str) -> Dict[int, str]:
        """Where each of ``node``'s shards would land without it.

        Pure planning — the map itself is unchanged.  Consistent
        hashing guarantees the returned shards are exactly the set
        ``node`` owns today; no other shard moves.
        """
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not in the map")
        survivors = [n for n in self._nodes if n != node]
        if not survivors:
            raise ValueError("cannot plan removal of the last node")
        shadow = ShardMap(self.n_shards, survivors, self.replicas)
        return {
            shard: shadow.owner_of_shard(shard)
            for shard in range(self.n_shards)
            if self.owner_of_shard(shard) == node
        }

    def set_override(self, shard: int, node: str) -> None:
        """Cut one shard over to ``node`` (migration landed)."""
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not in the map")
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} outside "
                             f"[0, {self.n_shards})")
        self._overrides[shard] = node
        self.version += 1

    def set_split(self, shard: int, boundary: int,
                  high_node: str) -> None:
        """Split one hot shard at ``boundary`` (shard-relative bytes).

        Offsets ``< boundary`` stay with the current owner; offsets
        ``>= boundary`` are served by ``high_node``.  Key→shard
        placement is untouched, so determinism is preserved — the
        split only refines *which node* answers for the upper range.
        """
        if high_node not in self._nodes:
            raise ValueError(f"node {high_node!r} not in the map")
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} outside "
                             f"[0, {self.n_shards})")
        if boundary < 1:
            raise ValueError("split boundary must be positive")
        self._splits[shard] = (boundary, high_node)
        self.version += 1

    @property
    def splits(self) -> Dict[int, Tuple[int, str]]:
        return dict(self._splits)

    def __repr__(self) -> str:
        return (f"ShardMap({self.n_shards} shards over "
                f"{len(self._nodes)} nodes, v{self.version})")
