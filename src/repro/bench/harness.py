"""Benchmark harness utilities.

All experiments in ``repro.bench`` follow the same pattern: build a
fresh simulation, drive a workload, and read metrics out of the
hardware models.  The helpers here are the one copy of the repetitive
parts: measuring "cores consumed" over exactly the measurement window
(:class:`CoreMeter`), the sweep container the artifact serializes
(:class:`Sweep`), and :func:`run_cluster`, the one place a multi-node
scenario (``scale``, ``obs``/``attr``, ``slo``) is assembled and run.
Same-instant events fire in creation order, so the assembly order is
part of every simulated number ``--identity`` holds; a scenario names
its shape (nodes, crash, clients, its setup and load hooks) and reads
the outcomes back with :func:`tally`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import (Cluster, ClusterClient, Rebalancer,
                       encode_shard_read, encode_shard_write, stable_hash)
from ..faults import FaultInjector, FaultPlan
from ..hardware.cpu import CpuCluster
from ..sim import Environment
from ..units import PAGE_SIZE
from ..workloads.arrivals import ParetoSizes, open_loop
from ..sim.stats import fold_sum

__all__ = ["CoreMeter", "SweepRow", "Sweep", "READ_FRACTION",
           "ClusterRun", "run_cluster", "open_load", "shard_stream",
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


class ClusterRun:
    """One assembled cluster scenario: what its hooks see and
    :func:`run_cluster` returns."""

    def __init__(self, env: Environment, cluster: Cluster,
                 rebalancer: Optional[Rebalancer]):
        self.env = env
        self.cluster = cluster
        self.rebalancer = rebalancer
        #: what the scenario's ``setup`` hook returned
        self.armed = None
        self.clients: List[ClusterClient] = []
        #: cores busy over the load window, summed over the nodes
        #: (metered runs only)
        self.host_cores = self.dpu_cores = 0.0


def run_cluster(*, n_nodes: int, replicas: int, plane,
                crash: Optional[Tuple[int, float]], rebalance: bool,
                setup: Optional[Callable[[ClusterRun], object]],
                clients: Sequence[Tuple[str, str]],
                stale_fraction: float, deadline_s: Optional[float],
                follow: bool, meter: bool,
                load: Callable[[ClusterRun], None],
                duration_s: float, drain_s: float) -> ClusterRun:
    """Assemble one cluster scenario and run its load window and drain.

    The order: crash plan and injector (``crash`` is ``(seed,
    start_s)``: node1's DPU Arm cores die at ``start_s`` for ten load
    windows) → cluster (watched by ``plane``) → rebalancer → ``setup``
    (admission, autoscaler, tenants) → one client per ``(name, home)``
    in ``clients`` → dial every node → topology tracking (``follow``)
    → per-node host and DPU core meters (``meter``) → ``load`` (the
    scenario's processes, then its arrivals) → run.  ``deadline_s``
    stamps every request and, with a plane, feeds the client SLIs.
    """
    env = Environment()
    injector = None
    if crash is not None:
        seed, start_s = crash
        injector = FaultInjector(env, FaultPlan(seed=seed).cpu_crash(
            start_s, 10 * duration_s, site="cpu.node1.dpu.cpu"))
    cluster = Cluster(env, n_nodes, replicas=replicas, injector=injector,
                      telemetry=plane)
    run = ClusterRun(env, cluster,
                     Rebalancer(cluster) if rebalance else None)
    if setup is not None:
        run.armed = setup(run)
    run.clients = [
        ClusterClient(cluster, name, home=home,
                      stale_fraction=stale_fraction, sli_plane=plane,
                      sli_deadline_s=deadline_s,
                      stamp_deadline_s=deadline_s)
        for name, home in clients]

    def dial():
        for client in run.clients:
            yield from client.connect_all()

    env.run(until=env.process(dial(), name="setup"))
    if follow:
        for client in run.clients:
            env.process(client.track_topology(),
                        name=f"{client.name}-topo")
    meters = [(CoreMeter(node.server.host_cpu),
               CoreMeter(node.server.dpu.cpu))
              for node in cluster.nodes] if meter else []
    for host, dpu in meters:
        host.start()
        dpu.start()
    start = env.now
    load(run)
    env.run(until=start + duration_s)
    # Cores are measured over the load window only (S9 convention);
    # the drain is just for in-flight requests to land.
    if meters:
        run.host_cores = fold_sum(host.cores() for host, _ in meters)
        run.dpu_cores = fold_sum(dpu.cores() for _, dpu in meters)
    env.run(until=start + duration_s + drain_s)
    return run


def open_load(seed: int, rate: float, count: int, duration_s: float,
              prefix: str) -> Callable[[ClusterRun], None]:
    """The ``load`` of an open-loop scenario: client ``i`` submits the
    first ``count`` requests of its own :func:`shard_stream` at
    ``rate`` for ``duration_s``, as process ``{prefix}{i}``."""
    def load(run: ClusterRun) -> None:
        cluster = run.cluster
        for i, client in enumerate(run.clients):
            stream = shard_stream(seed, i, count,
                                  cluster.shardmap.n_shards,
                                  cluster.shard_bytes)
            open_loop(run.env, rate, submit_handler(client, stream),
                      duration_s, name=f"{prefix}{i}")
    return load


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
