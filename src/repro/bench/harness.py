"""Benchmark harness utilities and the table of cluster simulations.

All experiments in ``repro.bench`` follow the same pattern: build a
fresh simulation, drive a workload, and read metrics out of the
hardware models.  The helpers here are the one copy of the repetitive
parts: measuring "cores consumed" over exactly the measurement window
(:class:`CoreMeter`), the sweep container the artifact serializes
(:class:`Sweep`), the storage-server point ``s9``, ``a5`` and
``scale`` run (:func:`s9_point`), and the cluster simulations.

Every simulation is a row naming every input.  A single-node row is a
keyword :func:`functools.partial` of its point function, whose
signature is the row's schema (:func:`run_point`).  Every multi-node
simulation (``scale``, ``obs``/``attr``, ``slo``) is one frozen
:class:`Row` of :data:`ROWS`, run by :func:`run_cluster`, the one
place a cluster scenario is assembled.  Same-instant events
fire in creation order, so the assembly order is part of every
simulated number ``--identity`` holds.  A row names its shape (nodes,
clients, rate, windows, crash) and its ``setup`` and ``load`` hooks,
module-level functions so a row pickles whole; an experiment reads
the outcomes back (:func:`tally`) and ``--jobs N`` hands its rows out
one at a time.  A test that needs a smaller scenario replaces a row
(:func:`dataclasses.replace`, or a partial's keywords) instead of
patching a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines import HostServedStorage
from ..baselines.host_tcp import make_kernel_tcp
from ..cluster import (AutoscalePolicy, Autoscaler, Cluster,
                       ClusterClient, Rebalancer, encode_shard_read,
                       encode_shard_write, stable_hash)
from ..core import (AdmissionController, DdsClient, DpdpuRuntime,
                    encode_log_replay, encode_read, encode_write)
from ..core.tenancy import TenantRegistry
from ..faults import FaultInjector, FaultPlan
from ..hardware import BLUEFIELD2, connect, make_server
from ..hardware.cpu import CpuCluster
from ..obs import SloMonitor, SloSpec
from ..sim import Environment
from ..units import MiB, PAGE_SIZE
from ..workloads import KvStoreIndex, PageServerWorkload, YcsbWorkload
from ..workloads.arrivals import (ParetoSizes, TenantMix, arrival_count,
                                  flash_crowd, mmpp_arrivals, open_loop,
                                  poisson_arrivals)
from ..sim.stats import fold_sum

__all__ = ["CoreMeter", "SweepRow", "Sweep", "READ_FRACTION",
           "run_point", "run_traced_point", "s9_point", "ClusterRun",
           "Row", "run_cluster", "ROWS", "homed", "open_load",
           "shard_stream", "submit_handler", "tally"]

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

    def to_dict(self) -> dict:
        """The JSON-safe encoding of the ``--json-out`` artifact."""
        return {
            "x_label": self.x_label,
            "rows": [{"x": row.x, "values": dict(row.values)}
                     for row in self.rows],
        }


# -- single-node rows --------------------------------------------------------


def run_point(_name: str, row: partial, _telemetry) -> object:
    """Run a single-node row: a keyword partial of its point function."""
    return row()


def run_traced_point(_name: str, row: partial, telemetry) -> object:
    """Run a single-node row whose point function takes the unit's
    telemetry (None unless ``--trace-out`` / ``--attr-out``)."""
    return row(telemetry=telemetry)


def _s9_requests(workload: str, read_fraction: float, count: int,
                 file_id: int):
    """Pre-generate the encoded request stream for one S9 point."""
    if workload == "pageserver":
        generator = PageServerWorkload(
            database_pages=(256 * MiB) // PAGE_SIZE,
            read_fraction=read_fraction,
            replay_working_set_bytes=32 * MiB,
            seed=13,
        )
        encoded = []
        for request in generator.requests(count):
            if request.kind == "get_page":
                encoded.append(encode_read(file_id, request.offset,
                                           request.size))
            else:
                encoded.append(encode_log_replay(
                    file_id, request.offset, request.size,
                    working_set=request.working_set,
                ))
        return encoded
    index = KvStoreIndex(n_keys=100_000)
    ycsb = YcsbWorkload(index, read_fraction=read_fraction, seed=13)
    encoded = []
    for op in ycsb.ops(count):
        offset = op.offset % (192 * MiB)
        if op.kind == "get":
            encoded.append(encode_read(file_id, offset, op.size))
        else:
            encoded.append(encode_write(file_id, offset, op.size))
    return encoded


def s9_point(rate: float, duration_s: float, workload: str,
             read_fraction: float, n_connections: int,
             use_dds: bool) -> Dict[str, float]:
    """One storage server under an open-loop ``"pageserver"`` or
    ``"kv"`` mix, served through DDS or by the host alone: host and
    DPU cores over the load window and the share DDS offloaded."""
    if workload not in ("pageserver", "kv"):
        raise ValueError(f"unknown workload {workload!r}")
    env = Environment()
    storage = make_server(env, name="storage", dpu_profile=BLUEFIELD2)
    client_machine = make_server(env, name="client", dpu_profile=None)
    connect(storage, client_machine)
    dds_server = None
    if use_dds:
        runtime = DpdpuRuntime(storage, se_ring_capacity=1 << 16)
        file_id = runtime.storage.create("db", size=256 * MiB)
        dds_server = runtime.dds(port=9200)
        dpu_cpu = storage.dpu.cpu
    else:
        served = HostServedStorage(storage, port=9200)
        file_id = served.create_file("db", 256 * MiB)
        dpu_cpu = None
    client_tcp = make_kernel_tcp(client_machine, "c-tcp")
    count = int(rate * duration_s)
    requests = _s9_requests(workload, read_fraction, count, file_id)
    clients = []

    def setup():
        for _ in range(n_connections):
            connection = yield from client_tcp.connect(9200)
            clients.append(DdsClient(connection))

    env.run(until=env.process(setup()))
    host_meter = CoreMeter(storage.host_cpu)
    host_meter.start()
    dpu_meter = CoreMeter(dpu_cpu) if dpu_cpu else None
    if dpu_meter:
        dpu_meter.start()

    def handler(i):
        # Open loop: submit is asynchronous and nothing joins on the
        # request here, so no per-arrival process is needed.
        clients[i % n_connections].submit(requests[i % len(requests)])

    start = env.now
    open_loop(env, rate, handler, duration_s)
    env.run(until=start + duration_s)
    return {
        "host_cores": host_meter.cores(),
        "dpu_cores": dpu_meter.cores() if dpu_meter else 0.0,
        "offload_fraction": (dds_server.offload_fraction
                             if dds_server else 0.0),
    }


# -- the cluster simulations -------------------------------------------------


class ClusterRun:
    """One assembled cluster simulation: what its hooks see and
    :func:`run_cluster` returns."""

    def __init__(self, row: "Row", env: Environment, cluster: Cluster,
                 rebalancer: Optional[Rebalancer]):
        self.row = row
        self.env = env
        self.cluster = cluster
        self.rebalancer = rebalancer
        #: what the row's ``setup`` hook returned
        self.armed = None
        self.clients: List[ClusterClient] = []
        #: cores busy over the load window, summed over the nodes
        #: (metered rows only)
        self.host_cores = self.dpu_cores = 0.0


@dataclass(frozen=True)
class Row:
    """One cluster simulation, every input named.

    ``clients`` is one ``(name, home node)`` per client; ``rate`` is
    what the row's ``load`` offers per client (the pro tenant's rate
    in the noisy neighbor, the base rate in the flash crowd);
    ``crash`` is ``(seed, start_s)``: node1's DPU Arm cores die at
    ``start_s`` and stay down for the rest of the run.
    ``deadline_s`` stamps every request and, with a plane, feeds the
    client SLIs; ``follow`` tracks the topology; ``meter`` measures
    host and DPU cores over the load window.
    """

    nodes: int
    replicas: int
    clients: Tuple[Tuple[str, str], ...]
    stale_fraction: float
    rate: float
    duration_s: float
    drain_s: float
    crash: Optional[Tuple[int, float]]
    rebalance: bool
    deadline_s: Optional[float]
    follow: bool
    meter: bool
    setup: Optional[Callable[[ClusterRun], object]]
    load: Callable[[ClusterRun], None]


def run_cluster(row: Row, plane) -> ClusterRun:
    """Assemble one cluster simulation and run its load window and drain.

    The order: crash plan and injector → cluster (watched by
    ``plane``) → rebalancer → ``setup`` → one client per entry of
    ``clients`` → dial every node → topology tracking → per-node host
    and DPU core meters → ``load`` (the row's processes, then its
    arrivals) → run.
    """
    env = Environment()
    injector = None
    if row.crash is not None:
        seed, start_s = row.crash
        injector = FaultInjector(env, FaultPlan(seed=seed).cpu_crash(
            start_s, float("inf"), site="cpu.node1.dpu.cpu"))
    cluster = Cluster(env, row.nodes, replicas=row.replicas,
                      injector=injector, telemetry=plane)
    run = ClusterRun(row, env, cluster,
                     Rebalancer(cluster) if row.rebalance else None)
    if row.setup is not None:
        run.armed = row.setup(run)
    run.clients = [
        ClusterClient(cluster, name, home=home,
                      stale_fraction=row.stale_fraction, sli_plane=plane,
                      sli_deadline_s=row.deadline_s,
                      stamp_deadline_s=row.deadline_s)
        for name, home in row.clients]

    def dial():
        for client in run.clients:
            yield from client.connect_all()

    env.run(until=env.process(dial(), name="setup"))
    if row.follow:
        for client in run.clients:
            env.process(client.track_topology(),
                        name=f"{client.name}-topo")
    meters = [(CoreMeter(node.server.host_cpu),
               CoreMeter(node.server.dpu.cpu))
              for node in cluster.nodes] if row.meter else []
    for host, dpu in meters:
        host.start()
        dpu.start()
    start = env.now
    row.load(run)
    env.run(until=start + row.duration_s)
    # Cores are measured over the load window only (S9 convention);
    # the drain is just for in-flight requests to land.
    if meters:
        run.host_cores = fold_sum(host.cores() for host, _ in meters)
        run.dpu_cores = fold_sum(dpu.cores() for _, dpu in meters)
    env.run(until=start + row.duration_s + row.drain_s)
    return run


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


def tally(clients: List[ClusterClient],
          deadline_s: Optional[float] = None) -> Dict[str, float]:
    """Outcome counts summed over ``clients``, keyed as
    :meth:`ClusterClient.outcomes` keys them (``late`` only with a
    ``deadline_s``)."""
    per_client = [client.outcomes(deadline_s=deadline_s)
                  for client in clients]
    return {key: fold_sum(outcome[key] for outcome in per_client)
            for key in per_client[0]}


# -- load hooks ---------------------------------------------------------------


def open_load(seed: int, prefix: str, run: ClusterRun) -> None:
    """Client ``i`` submits its own :func:`shard_stream` open-loop at
    the row's rate for its load window, as process ``{prefix}{i}``."""
    row, cluster = run.row, run.cluster
    count = arrival_count(row.rate, row.duration_s)
    for i, client in enumerate(run.clients):
        stream = shard_stream(seed, i, count, cluster.shardmap.n_shards,
                              cluster.shard_bytes)
        open_loop(run.env, row.rate, submit_handler(client, stream),
                  row.duration_s, name=f"{prefix}{i}")


#: the seed of every ``slo`` row's arrivals, crash and tenant mix
SLO_SEED = 23
#: the on-time bound an answer must meet to count as goodput, the
#: deadline the monitor watches, and the budget admission's deadline
#: rung gives a request that carries none
DEADLINE_S = 1.5e-3
SCRAPE_INTERVAL_S = 2.5e-4
#: the client-observed SLO: each scrape window, at least this
#: fraction of a client's answers must be ok and on time.  Client-
#: observed because the collapse lives upstream of the nodes (switch
#: port queues, network acks) where server-side p99 never sees it.
ONTIME_FLOOR = 0.5
#: the flash crowd: 2x the base rate over [2, 7) ms, 0.5 ms ramps
FLASH_PEAK_RATE = 150_000.0
FLASH_SURGE_START_S = 2.0e-3
FLASH_SURGE_S = 5.0e-3
#: the shard the hot-shard row's skewed stream drives hot
HOT_SHARD = 7


def _flash_load(surge: bool, run: ClusterRun) -> None:
    """The flash crowd's tenant streams: through the surge, or at the
    base rate throughout (the steady baseline the claims normalize
    against)."""
    row, cluster = run.row, run.cluster
    mix = TenantMix({"web": 0.6, "mobile": 0.3, "api": 0.1},
                    seed=SLO_SEED)
    peak = int(FLASH_PEAK_RATE * row.duration_s) + 1
    for i, client in enumerate(run.clients):
        handler = submit_handler(client, shard_stream(
            SLO_SEED, i, peak, cluster.shardmap.n_shards,
            cluster.shard_bytes, tenant_for=mix.tenant))
        if surge:
            flash_crowd(run.env, handler, row.duration_s, row.rate,
                        FLASH_PEAK_RATE, FLASH_SURGE_START_S,
                        FLASH_SURGE_S, ramp_s=5.0e-4,
                        seed=SLO_SEED + i, name=f"flash{i}")
        else:
            poisson_arrivals(run.env, row.rate, handler,
                             row.duration_s, seed=SLO_SEED + i,
                             name=f"steady{i}")


#: the noisy neighbor's batch tenants: an MMPP flood whose burst
#: state overlaps past the nodes' serve capacity (~1.35M ops/s) while
#: staying under the switch ports' frame ceiling
BATCH_RATES = (80_000.0, 380_000.0)


def _noisy_load(run: ClusterRun) -> None:
    """The steady pro tenant, then four bursting batch clients."""
    row, cluster = run.row, run.cluster
    n_shards, shard_bytes = cluster.shardmap.n_shards, cluster.shard_bytes
    sizes = ParetoSizes(alpha=1.3, min_size=512,
                        max_size=4 * PAGE_SIZE, seed=SLO_SEED)
    pro, *batch_clients = run.clients
    pro_stream = shard_stream(SLO_SEED, 0,
                              int(row.rate * row.duration_s) + 1,
                              n_shards, shard_bytes,
                              tenant_for=lambda k: "pro")
    poisson_arrivals(run.env, row.rate, submit_handler(pro, pro_stream),
                     row.duration_s, seed=SLO_SEED, name="pro")
    batch_count = int(max(BATCH_RATES) * row.duration_s) + 1
    # Staggered seeds desynchronize the four MMPP phase machines, so
    # the flood arrives as overlapping bursts, not lockstep.
    for i, client in enumerate(batch_clients):
        stream = shard_stream(SLO_SEED, 1 + i, batch_count, n_shards,
                              shard_bytes, tenant_for=lambda k: "batch",
                              sizes=sizes)
        mmpp_arrivals(run.env, submit_handler(client, stream),
                      row.duration_s, rates=BATCH_RATES,
                      dwell_s=(2.5e-4, 7.5e-4), seed=SLO_SEED + 1 + i,
                      name=f"batch{i}")


def _join_replacement(run: ClusterRun):
    """Boot a node, join it with its shards pinned to their current
    owners and pull them live — the autoscaler's join protocol."""
    cluster, rebalancer = run.cluster, run.rebalancer
    node = cluster.add_node()
    if run.armed is not None:
        run.armed(node)
    rebalancer.watch(node)
    plan = cluster.shardmap.join_node(node.name)
    by_source: Dict[str, List[int]] = {}
    for shard, source in sorted(plan.items()):
        by_source.setdefault(source, []).append(shard)
    pullers = [
        run.env.process(
            rebalancer.pull(cluster.node(source), node, shards),
            name=f"upgrade-pull-{node.name}<-{source}")
        for source, shards in sorted(by_source.items())
    ]
    if pullers:
        yield run.env.all_of(pullers)


def _upgrade_load(make_before_break: bool, run: ClusterRun) -> None:
    """At 1.5 ms drain node2 live and join its replacement, beside the
    open-loop load.  Make-before-break (the protected row) has the
    replacement in the ring and populated *before* the old node
    drains, so capacity never dips below three nodes;
    break-before-make runs one node short for the whole drain-plus-
    join window."""
    def upgrade():
        yield run.env.timeout(1.5e-3)
        victim = run.cluster.node("node2")
        if make_before_break:
            yield from _join_replacement(run)
            yield from run.rebalancer.drain(victim)
        else:
            yield from run.rebalancer.drain(victim)
            yield from _join_replacement(run)

    run.env.process(upgrade(), name="upgrade")
    open_load(SLO_SEED, "load", run)


def _hot_load(run: ClusterRun) -> None:
    """Each client's stream sends 75 % of its requests to
    :data:`HOT_SHARD`, open-loop, as process ``skew{i}``."""
    row, cluster = run.row, run.cluster
    for i, client in enumerate(run.clients):
        stream = shard_stream(SLO_SEED, i,
                              int(row.rate * row.duration_s) + 1,
                              cluster.shardmap.n_shards,
                              cluster.shard_bytes, hot_shard=HOT_SHARD,
                              hot_fraction=0.75)
        open_loop(run.env, row.rate, submit_handler(client, stream),
                  row.duration_s, name=f"skew{i}")


# -- setup hooks --------------------------------------------------------------


def _arm_admission(run: ClusterRun) -> Callable:
    """Put an AdmissionController on every node; return the hook that
    arms one more node, so scaled-up and replacement nodes are born
    protected too."""
    cluster, plane = run.cluster, run.cluster.telemetry

    def arm(node):
        node.dds.admission = AdmissionController(
            cluster.env, TenantRegistry(cluster.env),
            registry=plane.node(node.name).metrics,
            max_queue=128, service_rate_ops=150_000.0,
            slo_target_s=DEADLINE_S, name=f"admission.{node.name}")

    for node in cluster.nodes:
        arm(node)
    return arm


def _autoscaler(policy: AutoscalePolicy, run: ClusterRun) -> Autoscaler:
    """Admission on every node, present and future, under an
    autoscaler with ``policy``."""
    return Autoscaler(run.cluster, run.cluster.telemetry, run.rebalancer,
                      interval_s=SCRAPE_INTERVAL_S, policy=policy,
                      node_hook=_arm_admission(run))


def _pro_slo(run: ClusterRun) -> None:
    """Scope the plane's SLO to the pro tenant: batch is best-effort
    by contract, so its refused bursts are not violations."""
    plane = run.cluster.telemetry
    if plane is not None:
        plane.monitor = SloMonitor((
            SloSpec("pro_ontime_floor", metric="ontime_fraction",
                    bound=ONTIME_FLOOR, kind="min", node="pro",
                    min_windows=2),
        ))


def _noisy_tenants(run: ClusterRun) -> None:
    """The pro SLO, admission, and the batch tenant's token bucket: the
    MMPP flood is refused at the door with retry-after hints while the
    pro tenant's unmetered traffic sails through."""
    _pro_slo(run)
    _arm_admission(run)
    for node in run.cluster.nodes:
        tenants = node.dds.admission.tenants
        tenants.register("batch", rate_limit_ops_per_s=30_000.0,
                         burst_ops=16.0)
        tenants.register("pro")


def _scaler(min_nodes: int, max_nodes: int, cooldown_s: float,
            min_windows: int) -> Callable[[ClusterRun], Autoscaler]:
    """The chaos rows' autoscaler: scale up on p99 or on cluster-wide
    admission rejections (admission keeps p99 healthy, so rejections
    *are* the signal), never down, never split."""
    return partial(_autoscaler, AutoscalePolicy(
        p99_high_s=1.2e-3, p99_low_s=0.0, occupancy_low=0.0,
        min_nodes=min_nodes, max_nodes=max_nodes, cooldown_s=cooldown_s,
        hot_shard_ratio=1e6, min_heat=1e9, min_windows=min_windows,
        reject_rate_high=40_000.0))


# -- the table ----------------------------------------------------------------


def homed(count: int, nodes: int) -> Tuple[Tuple[str, str], ...]:
    """``count`` clients, client ``i`` homed on node ``i mod nodes``."""
    return tuple((f"client{i}", f"node{i % nodes}")
                 for i in range(count))


#: the chaos matrix's rolling upgrade, and the base of every ``slo``
#: row: six clients offer 1.2M ops/s — three nodes carry it fine, two
#: are ~1.3x overloaded.  512 ring points per node keep placement
#: near-even (64 leave a 70/30 split at two nodes), so the scenarios
#: stress capacity, not hash luck; responses still pending past the
#: 1.5 ms deadline are late either way, so the drain only covers
#: on-time completions.
_UPGRADE = Row(nodes=3, replicas=512, clients=homed(6, 3),
               stale_fraction=0.0, rate=200_000.0, duration_s=7.0e-3,
               drain_s=2.5e-3, crash=None, rebalance=True,
               deadline_s=DEADLINE_S, follow=True, meter=False,
               setup=None, load=partial(_upgrade_load, False))
#: eight clients against two nodes: steady state (8 x 75K) fits, the
#: surge (8 x 150K) is ~1.3x the two-node ceiling until the autoscaler
#: adds nodes and clients dial them
_FLASH = replace(_UPGRADE, nodes=2, clients=homed(8, 2), rate=75_000.0,
                 duration_s=8.0e-3, load=partial(_flash_load, True))
#: node1's DPU dies at 2 ms under ~0.9x load; the two survivors then
#: face ~1.3x their capacity
_FAILOVER = replace(_UPGRADE, stale_fraction=0.1,
                    crash=(SLO_SEED, 2.0e-3),
                    load=partial(open_load, SLO_SEED, "load"))
#: four bursting batch clients next to one steady pro tenant
_NOISY = replace(_UPGRADE, clients=(("pro", "node0"),) + tuple(
    (f"batch{i}", f"node{i % 3}") for i in range(4)),
    rate=40_000.0, duration_s=4.0e-3, follow=False, setup=_pro_slo,
    load=_noisy_load)
#: the scale experiment's DPU-crash triptych: node1's Arm cores die at
#: 4 ms under stale-routed open-loop load
_TRIPTYCH = Row(nodes=4, replicas=64, clients=homed(4, 4),
                stale_fraction=0.1, rate=80_000.0, duration_s=12e-3,
                drain_s=4e-3, crash=(11, 4e-3), rebalance=False,
                deadline_s=None, follow=False, meter=False, setup=None,
                load=partial(open_load, 11, "load"))
#: the weak-scaling sweep: client ``i`` homed on node ``i mod N``,
#: 15 % of requests sent to the home node instead of the owner (a
#: routing cache lagging the shard map)
_SCALE = replace(_TRIPTYCH, nodes=1, clients=homed(1, 1),
                 stale_fraction=0.0, rate=120_000.0, duration_s=5e-3,
                 drain_s=3e-3, crash=None, meter=True,
                 load=partial(open_load, 31, "load"))
#: the rack points share a fleet of eight clients (sixteen at 128
#: nodes) offering 25K ops/s per node between them
_RACK = {n: max(8, n // 8) for n in (8, 64, 128)}

#: every cluster simulation, grouped by the experiment that reads it
#: (and ``scale``'s single-node baseline beside its cluster rows)
ROWS: Dict[str, Dict[str, object]] = {
    "slo": {
        "flash_crowd-p": replace(_FLASH, setup=_scaler(2, 4, 1.0e-3, 2)),
        "flash_crowd-u": _FLASH,
        "regional_failover-p": replace(
            _FAILOVER, setup=_scaler(3, 5, 5.0e-4, 1)),
        "regional_failover-u": _FAILOVER,
        "noisy_neighbor-p": replace(_NOISY, setup=_noisy_tenants),
        "noisy_neighbor-u": _NOISY,
        "rolling_upgrade-p": replace(
            _UPGRADE, setup=_arm_admission,
            load=partial(_upgrade_load, True)),
        "rolling_upgrade-u": _UPGRADE,
        "steady": replace(_FLASH, setup=_scaler(2, 4, 1.0e-3, 2),
                          load=partial(_flash_load, False)),
        # a skewed stream pins ~1.2x one node's capacity onto one
        # shard until the autoscaler splits it
        "hotshard": replace(
            _UPGRADE, nodes=2, clients=homed(2, 2), rate=300_000.0,
            duration_s=8.0e-3, follow=False,
            setup=partial(_autoscaler, AutoscalePolicy(
                p99_high_s=1.0, p99_low_s=0.0, occupancy_low=0.0,
                min_nodes=2, max_nodes=2, cooldown_s=1.0e-3,
                hot_shard_ratio=3.0, min_heat=60.0, min_windows=4)),
            load=_hot_load),
    },
    "scale": {
        **{f"goodput.{n}": replace(_SCALE, nodes=n, clients=homed(n, n),
                                   stale_fraction=0.15 if n > 1 else 0.0)
           for n in (1, 2, 4, 8)},
        "fault_free": replace(_TRIPTYCH, crash=None),
        "norebalance": _TRIPTYCH,
        "rebalance": replace(_TRIPTYCH, rebalance=True),
        **{f"rack.{n}": replace(_SCALE, nodes=n, clients=homed(c, n),
                                stale_fraction=0.15,
                                rate=25_000.0 * n / c,
                                load=partial(open_load, 47, "rack"))
           for n, c in _RACK.items()},
        # the conventional fleet the sweep replaces: one host-served
        # node at the sweep's per-node rate (the TCO's baseline)
        "baseline": partial(s9_point, rate=_SCALE.rate,
                            duration_s=_SCALE.duration_s, workload="kv",
                            read_fraction=READ_FRACTION, n_connections=4,
                            use_dds=False),
    },
    # the obs/attr incident: the triptych's rebalancing run on three
    # nodes, more stale-routed
    "obs": {"incident": replace(_TRIPTYCH, nodes=3, clients=homed(3, 3),
                                stale_fraction=0.2, crash=(17, 4e-3),
                                rebalance=True,
                                load=partial(open_load, 17, "load"))},
}
