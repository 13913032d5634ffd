"""Benchmark harness utilities.

All experiments in ``repro.bench`` follow the same pattern: build a
fresh simulation, drive a workload, and read metrics out of the
hardware models.  The helpers here are the one copy of the repetitive
parts: measuring "cores consumed" over exactly the measurement window
(:class:`CoreMeter`), the sweep container the artifact serializes
(:class:`Sweep`), and the cluster-scenario driver every multi-node
experiment (``scale``, ``obs``, ``slo``) shares — connect the clients,
generate each client's seeded request stream, submit it and tally the
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import (ClusterClient, encode_shard_read,
                       encode_shard_write, stable_hash)
from ..hardware.cpu import CpuCluster
from ..sim import Environment
from ..units import PAGE_SIZE
from ..workloads.arrivals import ParetoSizes
from ..sim.stats import fold_sum

__all__ = ["CoreMeter", "SweepRow", "Sweep", "READ_FRACTION",
           "connect_clients", "follow_topology", "shard_stream",
           "submit_handler", "tally"]

#: share of every cluster request stream that reads (the rest write)
READ_FRACTION = 0.9


class CoreMeter:
    """Measures cores consumed by a cluster over a window."""

    def __init__(self, cpu: CpuCluster):
        self.cpu = cpu
        self._start_busy = 0.0
        self._start_time = 0.0
        self._started = False

    def start(self) -> None:
        """Begin the measurement window at the current time."""
        self._start_busy = self.cpu.busy_seconds()
        self._start_time = self.cpu.env.now
        self._started = True

    def cores(self) -> float:
        """Average busy cores since :meth:`start` (0.0 if unstarted)."""
        if not self._started:
            return 0.0
        elapsed = self.cpu.env.now - self._start_time
        if elapsed <= 0:
            return 0.0
        return (self.cpu.busy_seconds() - self._start_busy) / elapsed


@dataclass
class SweepRow:
    """One point of a parameter sweep."""

    x: float
    values: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.values[key]


class Sweep:
    """An ordered collection of sweep rows."""

    def __init__(self, x_label: str):
        self.x_label = x_label
        self.rows: List[SweepRow] = []

    def add(self, x: float, **values: float) -> None:
        """Append one sweep point."""
        self.rows.append(SweepRow(x, dict(values)))

    def keys(self) -> List[str]:
        """The union of series names across all rows.

        First-appearance order: a series that only shows up in a
        later row (a ragged sweep) is still listed, after the ones
        the earlier rows introduced.
        """
        seen: List[str] = []
        for row in self.rows:
            for key in row.values:
                if key not in seen:
                    seen.append(key)
        return seen

    # -- serialization (the --json-out artifact format) ---------------------

    def to_dict(self) -> dict:
        """A JSON-safe encoding that :meth:`from_dict` round-trips."""
        return {
            "x_label": self.x_label,
            "rows": [{"x": row.x, "values": dict(row.values)}
                     for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Sweep":
        """Rebuild a :class:`Sweep` from :meth:`to_dict` output."""
        sweep = cls(data["x_label"])
        for row in data["rows"]:
            sweep.rows.append(SweepRow(row["x"], dict(row["values"])))
        return sweep


# -- the cluster-scenario driver ----------------------------------------------


def connect_clients(env: Environment,
                    clients: Sequence[ClusterClient]) -> None:
    """Run the sim until every client has dialed every live node."""
    def setup():
        for client in clients:
            yield from client.connect_all()

    env.run(until=env.process(setup()))


def follow_topology(env: Environment,
                    clients: Sequence[ClusterClient]) -> None:
    """Have every client poll membership and dial late joiners."""
    for client in clients:
        env.process(client.track_topology(),
                    name=f"{client.name}-topo")


def shard_stream(seed: int, client_index: int, count: int,
                 n_shards: int, shard_bytes: int,
                 tenant_for: Optional[Callable[[int], str]] = None,
                 sizes: Optional[ParetoSizes] = None,
                 hot_shard: Optional[int] = None,
                 hot_fraction: float = 0.0) -> List[Tuple]:
    """One client's deterministic (message, shard, offset) stream.

    Everything is hashed with crc32 (:func:`repro.cluster.stable_hash`)
    from ``seed``, the client index and the request index, so streams
    are process-stable and ``--jobs N`` runs stay byte-identical.
    """
    shard_pages = shard_bytes // PAGE_SIZE
    stream = []
    for k in range(count):
        tag = f"{seed}:{client_index}:{k}"
        if (hot_shard is not None
                and stable_hash(f"hot:{tag}") % 10_000
                < hot_fraction * 10_000):
            shard = hot_shard
        else:
            shard = stable_hash(f"sh:{tag}") % n_shards
        page = stable_hash(f"of:{tag}") % shard_pages
        offset = page * PAGE_SIZE
        tenant = tenant_for(k) if tenant_for is not None else None
        write = (stable_hash(f"rw:{tag}") % 10_000
                 >= READ_FRACTION * 10_000)
        if write:
            message = encode_shard_write(shard, offset, tenant=tenant)
        else:
            size = PAGE_SIZE
            if sizes is not None:
                size = min(sizes.size(k),
                           shard_bytes - offset)
                size = max(size, 64)
            message = encode_shard_read(shard, offset, size=size,
                                        tenant=tenant)
        stream.append((message, shard, offset))
    return stream


def submit_handler(client: ClusterClient,
                   stream: List[Tuple]) -> Callable[[int], None]:
    """The arrival handler that submits ``stream[k]`` through ``client``."""
    def handle(k: int) -> None:
        message, shard, offset = stream[k % len(stream)]
        client.submit(message, shard, tag=k, offset=offset)
    return handle


def tally(clients: Sequence[ClusterClient],
          deadline_s: Optional[float] = None) -> Dict[str, object]:
    """Outcome counts summed over ``clients``, plus the per-client rows.

    Keys are :meth:`ClusterClient.outcomes`'s (``late`` only with a
    ``deadline_s``) and ``per_client``, the list the sums were taken
    over.
    """
    per_client = [client.outcomes(deadline_s=deadline_s)
                  for client in clients]
    totals: Dict[str, object] = {
        key: fold_sum(outcome[key] for outcome in per_client)
        for key in per_client[0]}
    totals["per_client"] = per_client
    return totals
