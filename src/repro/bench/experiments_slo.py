"""SL: the overload-safe cluster under a chaos scenario matrix.

The robustness experiment the admission/backpressure/autoscale stack
exists for.  Four chaos scenarios — a flash crowd, a regional (DPU)
failover, a noisy neighbor, and a rolling upgrade — each run two
ways over identical seeded arrivals:

* **protected** — per-node :class:`~repro.core.AdmissionController`
  at the DDS ingress (token buckets from tenant budgets, bounded
  queue, deadline-aware early rejection) plus, where the
  scenario calls for it, the telemetry-driven
  :class:`~repro.cluster.Autoscaler`;
* **unprotected** — the same simulation with the door wide open (a
  telemetry plane still watches, because measuring is not
  protecting).

That the watching plane perturbs nothing — the unprotected arm run
with no plane at all is byte-identical — is a tier-1 test over
:data:`SCENARIOS` (``tests/obs/test_zero_perturbation.py``), not a
part of this experiment.

Goodput is *on-time* goodput — an ok response later than
``DEADLINE_S`` counts as late, because an open-loop overload answers
everything eventually and lateness is how collapse shows.
SLO-violation-seconds are the p99-ceiling breach windows the
:class:`~repro.obs.plane.SloMonitor` fired, times the scrape
interval.

Parts:

* ``matrix`` (nested, one row per scenario) — protected vs
  unprotected on-time goodput, their ratio, and violation-seconds
  both ways;
* ``flash`` — surge-window goodput rates against a no-surge
  steady-state baseline: admission plus reject-driven autoscaling
  keeps ≥ 90 % of steady goodput through a 2x offered surge while
  the unprotected run collapses;
* ``autoscale`` — the protected flash run's node-count record:
  scale-up happened, and the count converged within the window;
* ``hotshard`` — a skewed stream drives one shard hot; the
  autoscaler split halves the hot shard's p99 under live traffic;
* ``summary`` — the matrix-wide violation-seconds ratio.

Everything is a pure function of the seeds and sim time — arrivals,
admission verdicts, autoscale decisions and splits all replay
byte-identically, so the ``--jobs N`` identity gate covers SL too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..cluster import (AutoscalePolicy, Autoscaler, Cluster,
                       ClusterClient, Rebalancer, response_ok)
from ..core import AdmissionController
from ..core.tenancy import TenantRegistry
from ..faults import FaultInjector, FaultPlan
from ..obs import ClusterTelemetry, SloMonitor, SloSpec
from ..sim import Environment
from ..units import PAGE_SIZE
from ..workloads.arrivals import (ParetoSizes, TenantMix, flash_crowd,
                                  mmpp_arrivals, open_loop,
                                  poisson_arrivals)
from .harness import (connect_clients, follow_topology, shard_stream,
                      submit_handler, tally)
from ..sim.stats import fold_sum

__all__ = ["slo_parts", "SCENARIOS"]

SEED = 23

#: the on-time bound an answer must meet to count as goodput, the
#: deadline the monitor watches, and the budget admission's deadline
#: rung gives a request that carries none
DEADLINE_S = 1.5e-3
SCRAPE_INTERVAL_S = 2.5e-4

#: admission tuning shared by every protected run
MAX_QUEUE = 128
SERVICE_RATE_OPS = 150_000.0

#: virtual ring points per node.  The 64-point default leaves a
#: 70/30 ownership split at two nodes, which drives one switch port
#: past its frame-rate ceiling long before the cluster as a whole is
#: overloaded; 512 points keep placement near-even so the chaos
#: scenarios stress capacity, not hash luck.
CLUSTER_REPLICAS = 512

#: flash-crowd shape.  Eight client machines against two nodes: a
#: client's kernel stack caps its offered load near 600K ops/s and a
#: node serves ~450K req/s, so steady state (8 x 75K = 600K) fits
#: while the surge (8 x 150K = 1.2M) is ~1.3x the two-node ceiling —
#: until the autoscaler adds nodes and clients dial them.
FLASH_CLIENTS = 8
FLASH_BASE_RATE = 75_000.0
FLASH_PEAK_RATE = 150_000.0
FLASH_SURGE_START_S = 2.0e-3
FLASH_SURGE_S = 5.0e-3
FLASH_RAMP_S = 5.0e-4
FLASH_DURATION_S = 8.0e-3
#: surge goodput is measured after the control loop has had time to
#: reject, scale, migrate and let clients discover the new nodes
SURGE_SETTLE_S = 3.0e-3
#: cluster-wide admission rejections/s that scale the flash up —
#: admission keeps p99 healthy, so rejections *are* the signal
FLASH_REJECT_RATE_HIGH = 40_000.0
#: post-load drain for in-flight requests; responses still pending
#: past the 1.5 ms deadline are late either way, so the drain only
#: needs to cover on-time completions
DRAIN_S = 2.5e-3

#: regional failover: six clients offer 1.2M ops/s across three
#: nodes (~0.9x) until node1's DPU dies — the two survivors then
#: face ~1.3x their combined capacity.  Five milliseconds of
#: post-fault overload is what the violation and goodput claims
#: integrate over.
FAILOVER_CLIENTS = 6
FAILOVER_RATE = 200_000.0
FAILOVER_DURATION_S = 7.0e-3
FAULT_START_S = 2.0e-3

#: noisy neighbor: four metered batch clients burst next to one
#: steady pro tenant on three nodes.  The burst-heavy MMPP duty
#: cycle overlaps past the nodes' *serve* capacity (~1.35M ops/s)
#: while staying under the switch ports' frame ceiling — the regime
#: admission can actually protect: refusing the flood at the door
#: keeps the service queues short for the tenant with an SLO.
PRO_RATE = 40_000.0
NOISY_NODES = 3
BATCH_CLIENTS = 4
BATCH_RATES = (80_000.0, 380_000.0)
BATCH_DWELL_S = (2.5e-4, 7.5e-4)
BATCH_BUDGET_OPS = 30_000.0
NOISY_DURATION_S = 4.0e-3

#: rolling upgrade: six clients offer 1.2M ops/s — three nodes carry
#: it fine, the two-node gap while node2's replacement joins is ~1.3x
UPGRADE_CLIENTS = 6
UPGRADE_RATE = 200_000.0
UPGRADE_DURATION_S = 7.0e-3
UPGRADE_START_S = 1.5e-3

#: hot-shard scenario: a skewed stream pins ~1.2x one node's
#: capacity onto a single shard until the autoscaler splits it
HOT_SHARD = 7
HOT_FRACTION = 0.75
HOT_RATE = 300_000.0
HOT_DURATION_S = 8.0e-3
#: the post-cutover drain transient excluded from the after-split p99
HOT_SETTLE_S = 1.0e-3

#: the tenant population the flash crowd arrives as (admission
#: attributes each request; none of these carries a rate limit)
FLASH_TENANTS = {"web": 0.6, "mobile": 0.3, "api": 0.1}


#: the client-observed SLO: each scrape window, at least this
#: fraction of a client's answers must be ok and on time.  Client-
#: observed because the collapse lives upstream of the nodes (switch
#: port queues, network acks) where server-side p99 never sees it.
ONTIME_FLOOR = 0.5


def _slos() -> Tuple[SloSpec, ...]:
    """The matrix's SLO: a per-window on-time answer floor."""
    return (
        SloSpec("ontime_floor", metric="ontime_fraction",
                bound=ONTIME_FLOOR, kind="min", min_windows=2),
    )


def _plane(name: str) -> ClusterTelemetry:
    plane = ClusterTelemetry(tracing=False, name=name,
                             scrape_interval_s=SCRAPE_INTERVAL_S)
    plane.monitor = SloMonitor(_slos())
    return plane


def _arm_admission(env, cluster, plane) -> Callable:
    """Put an AdmissionController on every node; return the hook.

    The returned callable arms one more node — handed to the
    :class:`Autoscaler` as ``node_hook`` so scaled-up nodes are born
    protected too.
    """

    def arm(node):
        node.dds.admission = AdmissionController(
            env, TenantRegistry(env),
            registry=plane.node(node.name).metrics,
            max_queue=MAX_QUEUE,
            service_rate_ops=SERVICE_RATE_OPS,
            slo_target_s=DEADLINE_S,
            name=f"admission.{node.name}")

    for node in cluster.nodes:
        arm(node)
    return arm


def _violation_seconds(plane: Optional[ClusterTelemetry]) -> float:
    """Seconds of scrape windows with at least one SLO breach.

    Unique windows, not raw violation entries: eight clients
    breaching the same window is one window of unavailability, and
    counting entries would reward runs that simply watch fewer
    clients.
    """
    if plane is None or plane.monitor is None:
        return 0.0
    windows = {violation.version
               for violation in plane.monitor.violations}
    return len(windows) * SCRAPE_INTERVAL_S


def _collect(clients: List[ClusterClient], cluster: Cluster,
             plane: Optional[ClusterTelemetry]) -> Dict[str, object]:
    return {
        **tally(clients, deadline_s=DEADLINE_S),
        "counters": cluster.metrics_snapshot(),
        "violation_s": _violation_seconds(plane),
    }


def _ontime_in_window(client: ClusterClient, lo_s: float,
                      hi_s: float) -> int:
    """On-time ok responses submitted inside ``[lo_s, hi_s)``."""
    count = 0
    for request, (_shard, submitted) in zip(client.requests,
                                            client.request_meta):
        if not (lo_s <= submitted < hi_s):
            continue
        if (request.completed and not request.failed
                and request.latency <= DEADLINE_S
                and response_ok(request.data)):
            count += 1
    return count


def _p99(samples: List[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[int(0.99 * (len(ordered) - 1))]


# -- the four chaos scenarios ------------------------------------------------------


def _run_flash(protected: bool, plane: Optional[ClusterTelemetry],
               surge: bool = True) -> Dict[str, object]:
    """Flash crowd against two nodes; autoscaler when protected.

    Every mode runs client-side topology tracking — in an
    unprotected run no node ever joins, so the poll is a no-op.
    ``surge=False`` is the steady-state baseline the flash claims
    normalize against — same everything, base rate throughout.
    """
    env = Environment()
    cluster = Cluster(env, 2, replicas=CLUSTER_REPLICAS, telemetry=plane)
    rebalancer = Rebalancer(cluster)
    autoscaler = None
    if protected:
        hook = _arm_admission(env, cluster, plane)
        autoscaler = Autoscaler(
            cluster, plane, rebalancer,
            interval_s=SCRAPE_INTERVAL_S,
            policy=AutoscalePolicy(
                p99_high_s=1.2e-3, p99_low_s=0.0,
                occupancy_low=0.0, min_nodes=2, max_nodes=4,
                cooldown_s=1.0e-3, hot_shard_ratio=1e6,
                min_heat=1e9, min_windows=2,
                reject_rate_high=FLASH_REJECT_RATE_HIGH),
            node_hook=hook)
    clients = [ClusterClient(cluster, f"client{i}",
                             home=f"node{i % 2}",
                             sli_plane=plane,
                             sli_deadline_s=DEADLINE_S,
                             stamp_deadline_s=DEADLINE_S)
               for i in range(FLASH_CLIENTS)]
    connect_clients(env, clients)
    follow_topology(env, clients)
    mix = TenantMix(FLASH_TENANTS, seed=SEED)
    peak = int(FLASH_PEAK_RATE * FLASH_DURATION_S) + 1
    streams = [
        shard_stream(SEED, i, peak, cluster.shardmap.n_shards,
                     cluster.shard_bytes, tenant_for=mix.tenant)
        for i in range(FLASH_CLIENTS)
    ]
    start = env.now
    for i in range(FLASH_CLIENTS):
        if surge:
            flash_crowd(env, submit_handler(clients[i], streams[i]),
                        FLASH_DURATION_S, FLASH_BASE_RATE,
                        FLASH_PEAK_RATE, FLASH_SURGE_START_S,
                        FLASH_SURGE_S, ramp_s=FLASH_RAMP_S,
                        seed=SEED + i, name=f"flash{i}")
        else:
            poisson_arrivals(env, FLASH_BASE_RATE,
                             submit_handler(clients[i], streams[i]),
                             FLASH_DURATION_S, seed=SEED + i,
                             name=f"steady{i}")
    env.run(until=start + FLASH_DURATION_S + DRAIN_S)
    result = _collect(clients, cluster, plane)
    result["clients"] = clients
    result["autoscaler"] = autoscaler
    return result


def _run_failover(protected: bool,
                  plane: Optional[ClusterTelemetry]
                  ) -> Dict[str, object]:
    """node1's DPU dies under load; survivors absorb the region.

    Admission alone cannot save this one — the survivors' overload
    queues upstream of the nodes — so the protected run also heals:
    the autoscaler sees the survivors' latency and rejection signals
    and provisions replacement capacity while the drain is still in
    flight.
    """
    env = Environment()
    plan = FaultPlan(seed=SEED).cpu_crash(
        FAULT_START_S, 10 * FAILOVER_DURATION_S,
        site="cpu.node1.dpu.cpu")
    injector = FaultInjector(env, plan)
    cluster = Cluster(env, 3, replicas=CLUSTER_REPLICAS, injector=injector, telemetry=plane)
    rebalancer = Rebalancer(cluster)
    if protected:
        hook = _arm_admission(env, cluster, plane)
        Autoscaler(
            cluster, plane, rebalancer,
            interval_s=SCRAPE_INTERVAL_S,
            policy=AutoscalePolicy(
                p99_high_s=1.2e-3, p99_low_s=0.0,
                occupancy_low=0.0, min_nodes=3, max_nodes=5,
                cooldown_s=5.0e-4, hot_shard_ratio=1e6,
                min_heat=1e9, min_windows=1,
                reject_rate_high=FLASH_REJECT_RATE_HIGH),
            node_hook=hook)
    clients = [ClusterClient(cluster, f"client{i}",
                             home=f"node{i % 3}", stale_fraction=0.1,
                             sli_plane=plane,
                             sli_deadline_s=DEADLINE_S,
                             stamp_deadline_s=DEADLINE_S)
               for i in range(FAILOVER_CLIENTS)]
    connect_clients(env, clients)
    follow_topology(env, clients)
    count = int(FAILOVER_RATE * FAILOVER_DURATION_S) + 1
    streams = [
        shard_stream(SEED, i, count, cluster.shardmap.n_shards,
                     cluster.shard_bytes)
        for i in range(FAILOVER_CLIENTS)
    ]
    start = env.now
    for i in range(FAILOVER_CLIENTS):
        open_loop(env, FAILOVER_RATE, submit_handler(clients[i], streams[i]),
                  FAILOVER_DURATION_S, name=f"load{i}")
    env.run(until=start + FAILOVER_DURATION_S + DRAIN_S)
    return _collect(clients, cluster, plane)


def _run_noisy(protected: bool,
               plane: Optional[ClusterTelemetry]
               ) -> Dict[str, object]:
    """A bursty batch tenant floods next to a steady pro tenant.

    Protection is the batch tenant's token-bucket budget: the MMPP
    flood is refused at the door with retry-after hints while the pro
    tenant's unmetered traffic sails through.  Only the pro tenant
    holds an SLO — batch is best-effort by contract, so its refused
    bursts are not availability violations — and the monitor is
    scoped identically in every mode.
    """
    env = Environment()
    if plane is not None:
        plane.monitor = SloMonitor((
            SloSpec("pro_ontime_floor", metric="ontime_fraction",
                    bound=ONTIME_FLOOR, kind="min", node="pro",
                    min_windows=2),
        ))
    cluster = Cluster(env, NOISY_NODES, replicas=CLUSTER_REPLICAS,
                      telemetry=plane)
    Rebalancer(cluster)
    if protected:
        _arm_admission(env, cluster, plane)
        for node in cluster.nodes:
            tenants = node.dds.admission.tenants
            tenants.register("batch",
                             rate_limit_ops_per_s=BATCH_BUDGET_OPS,
                             burst_ops=16.0)
            tenants.register("pro")
    pro = ClusterClient(cluster, "pro", home="node0",
                        sli_plane=plane, sli_deadline_s=DEADLINE_S,
                        stamp_deadline_s=DEADLINE_S)
    batch_clients = [ClusterClient(cluster, f"batch{i}",
                                   home=f"node{i % NOISY_NODES}",
                                   sli_plane=plane,
                                   sli_deadline_s=DEADLINE_S,
                                   stamp_deadline_s=DEADLINE_S)
                     for i in range(BATCH_CLIENTS)]
    clients = [pro] + batch_clients
    connect_clients(env, clients)
    sizes = ParetoSizes(alpha=1.3, min_size=512,
                        max_size=4 * PAGE_SIZE, seed=SEED)
    pro_count = int(PRO_RATE * NOISY_DURATION_S) + 1
    batch_count = int(max(BATCH_RATES) * NOISY_DURATION_S) + 1
    pro_stream = shard_stream(
        SEED, 0, pro_count, cluster.shardmap.n_shards,
        cluster.shard_bytes, tenant_for=lambda k: "pro")
    batch_streams = [
        shard_stream(SEED, 1 + i, batch_count,
                     cluster.shardmap.n_shards,
                     cluster.shard_bytes,
                     tenant_for=lambda k: "batch", sizes=sizes)
        for i in range(BATCH_CLIENTS)
    ]
    start = env.now
    poisson_arrivals(env, PRO_RATE, submit_handler(pro, pro_stream),
                     NOISY_DURATION_S, seed=SEED, name="pro")
    # Staggered seeds desynchronize the four MMPP phase machines, so
    # the flood arrives as overlapping bursts rather than lockstep.
    for i, client in enumerate(batch_clients):
        mmpp_arrivals(env, submit_handler(client, batch_streams[i]),
                      NOISY_DURATION_S, rates=BATCH_RATES,
                      dwell_s=BATCH_DWELL_S, seed=SEED + 1 + i,
                      name=f"batch{i}")
    env.run(until=start + NOISY_DURATION_S + DRAIN_S)
    result = _collect(clients, cluster, plane)
    result["pro_outcome"] = pro.outcomes(deadline_s=DEADLINE_S)
    return result


def _run_upgrade(protected: bool,
                 plane: Optional[ClusterTelemetry]
                 ) -> Dict[str, object]:
    """Rolling upgrade: drain node2 live, join its replacement."""
    env = Environment()
    cluster = Cluster(env, 3, replicas=CLUSTER_REPLICAS, telemetry=plane)
    rebalancer = Rebalancer(cluster)
    hook = None
    if protected:
        hook = _arm_admission(env, cluster, plane)
    clients = [ClusterClient(cluster, f"client{i}",
                             home=f"node{i % 3}",
                             sli_plane=plane,
                             sli_deadline_s=DEADLINE_S,
                             stamp_deadline_s=DEADLINE_S)
               for i in range(UPGRADE_CLIENTS)]
    connect_clients(env, clients)
    # The replacement node joins in every mode, so every mode's
    # clients dial it.
    follow_topology(env, clients)

    def join_replacement():
        # The replacement boots, joins the ring with moving shards
        # pinned to their current owners, and pulls them live — the
        # same join protocol the autoscaler uses.
        node = cluster.add_node()
        if hook is not None:
            hook(node)
        rebalancer.watch(node)
        plan = cluster.shardmap.join_node(node.name)
        by_source: Dict[str, List[int]] = {}
        for shard, source in sorted(plan.items()):
            by_source.setdefault(source, []).append(shard)
        pullers = [
            env.process(
                rebalancer.pull(cluster.node(source), node, shards),
                name=f"upgrade-pull-{node.name}<-{source}")
            for source, shards in sorted(by_source.items())
        ]
        if pullers:
            yield env.all_of(pullers)

    def upgrade():
        yield env.timeout(UPGRADE_START_S)
        victim = cluster.node("node2")
        if protected:
            # Make-before-break: the replacement is in the ring and
            # populated *before* the old node drains, so capacity
            # never dips below three nodes.
            yield from join_replacement()
            yield from rebalancer.drain(victim)
        else:
            # Break-before-make: the fleet runs one node short for
            # the whole drain-plus-join window.
            yield from rebalancer.drain(victim)
            yield from join_replacement()

    env.process(upgrade(), name="upgrade")
    count = int(UPGRADE_RATE * UPGRADE_DURATION_S) + 1
    streams = [
        shard_stream(SEED, i, count, cluster.shardmap.n_shards,
                     cluster.shard_bytes)
        for i in range(UPGRADE_CLIENTS)
    ]
    start = env.now
    for i in range(UPGRADE_CLIENTS):
        open_loop(env, UPGRADE_RATE, submit_handler(clients[i], streams[i]),
                  UPGRADE_DURATION_S, name=f"load{i}")
    env.run(until=start + UPGRADE_DURATION_S + DRAIN_S)
    return _collect(clients, cluster, plane)


#: scenario key -> runner(protected, plane) — the chaos matrix
SCENARIOS: Tuple[Tuple[str, Callable], ...] = (
    ("flash_crowd", _run_flash),
    ("regional_failover", _run_failover),
    ("noisy_neighbor", _run_noisy),
    ("rolling_upgrade", _run_upgrade),
)


def _run_hotshard() -> Dict[str, object]:
    """A skewed stream makes one shard hot; the autoscaler splits it.

    Returns the hot shard's on-time p99 before and after the split
    cutover, measured from the clients' own request records.
    """
    env = Environment()
    plane = _plane("slo-hotshard")
    cluster = Cluster(env, 2, replicas=CLUSTER_REPLICAS, telemetry=plane)
    rebalancer = Rebalancer(cluster)
    hook = _arm_admission(env, cluster, plane)
    autoscaler = Autoscaler(
        cluster, plane, rebalancer,
        interval_s=SCRAPE_INTERVAL_S,
        policy=AutoscalePolicy(
            p99_high_s=1.0, p99_low_s=0.0, occupancy_low=0.0,
            min_nodes=2, max_nodes=2, cooldown_s=1.0e-3,
            hot_shard_ratio=3.0, min_heat=60.0, min_windows=4),
        node_hook=hook)
    clients = [ClusterClient(cluster, f"client{i}", home=f"node{i}",
                             sli_plane=plane,
                             sli_deadline_s=DEADLINE_S,
                             stamp_deadline_s=DEADLINE_S)
               for i in range(2)]
    connect_clients(env, clients)
    count = int(HOT_RATE * HOT_DURATION_S) + 1
    streams = [
        shard_stream(SEED, i, count, cluster.shardmap.n_shards,
                     cluster.shard_bytes, hot_shard=HOT_SHARD,
                     hot_fraction=HOT_FRACTION)
        for i in range(2)
    ]
    start = env.now
    for i in range(2):
        open_loop(env, HOT_RATE, submit_handler(clients[i], streams[i]),
                  HOT_DURATION_S, name=f"skew{i}")
    env.run(until=start + HOT_DURATION_S + DRAIN_S)

    split_t = (autoscaler.split_history[0][0]
               if autoscaler.split_history else float("inf"))
    before: List[float] = []
    after: List[float] = []
    for client in clients:
        for request, (shard, submitted) in zip(client.requests,
                                               client.request_meta):
            if shard != HOT_SHARD or not request.completed \
                    or request.failed:
                continue
            if submitted < split_t:
                before.append(request.latency)
            elif submitted >= split_t + HOT_SETTLE_S:
                # The settle gap drains the pre-split backlog; its
                # requests belong to neither regime.
                after.append(request.latency)
    return {
        "split_happened": float(bool(autoscaler.split_history)),
        "split_t_s": (split_t if autoscaler.split_history else -1.0),
        "splits": float(autoscaler.splits.value),
        "p99_before_s": _p99(before),
        "p99_after_s": _p99(after),
        "hot_requests_before": float(len(before)),
        "hot_requests_after": float(len(after)),
    }


# -- the artifact ------------------------------------------------------------------


def slo_parts() -> Dict[str, object]:
    """SL: the chaos matrix, the flash baseline, and the hot split.

    Every simulation builds its own private plane (ten simulations
    can't share one scrape loop).
    """
    matrix: Dict[str, Dict[str, float]] = {}
    protected_violation_s = unprotected_violation_s = 0.0
    cells: Dict[str, Dict[str, Dict]] = {}
    for key, runner in SCENARIOS:
        protected = runner(True, _plane(f"slo-{key}-p"))
        unprotected = runner(False, _plane(f"slo-{key}-u"))
        protected_violation_s += protected["violation_s"]
        unprotected_violation_s += unprotected["violation_s"]
        matrix[key] = {
            "protected_ontime_ok": float(protected["ok"]),
            "unprotected_ontime_ok": float(unprotected["ok"]),
            "goodput_ratio": (protected["ok"]
                              / max(unprotected["ok"], 1)),
            "protected_violation_s": protected["violation_s"],
            "unprotected_violation_s": unprotected["violation_s"],
            "protected_late": float(protected["late"]),
            "unprotected_late": float(unprotected["late"]),
            # Errors in a protected run are overwhelmingly typed
            # admission rejections (retry-after contract); an
            # unprotected run has none to give.
            "protected_errors": float(protected["errors"]),
            "unprotected_errors": float(unprotected["errors"]),
        }
        if "pro_outcome" in protected:
            pro_p = protected["pro_outcome"]["ok"]
            pro_u = unprotected["pro_outcome"]["ok"]
            matrix[key]["protected_pro_ontime"] = float(pro_p)
            matrix[key]["unprotected_pro_ontime"] = float(pro_u)
            matrix[key]["pro_goodput_ratio"] = pro_p / max(pro_u, 1)
            matrix[key]["protected_pro_late"] = float(
                protected["pro_outcome"]["late"])
            matrix[key]["unprotected_pro_late"] = float(
                unprotected["pro_outcome"]["late"])
        cells[key] = {"protected": protected,
                      "unprotected": unprotected}

    # -- flash crowd vs its steady-state baseline ----------------------------
    steady = _run_flash(True, _plane("slo-steady"), surge=False)
    # Measure the back half of the surge: by then the protected
    # cluster has rejected, scaled and been re-dialed by clients,
    # while the unprotected one is deep in queueing collapse.
    window_lo = FLASH_SURGE_START_S + SURGE_SETTLE_S
    window_hi = FLASH_SURGE_START_S + FLASH_SURGE_S
    window = window_hi - window_lo

    def surge_rate(run: Dict) -> float:
        ontime = fold_sum(_ontime_in_window(client, window_lo, window_hi)
                          for client in run["clients"])
        return ontime / window

    steady_rate = surge_rate(steady)
    flash_protected = cells["flash_crowd"]["protected"]
    flash_unprotected = cells["flash_crowd"]["unprotected"]
    flash = {
        "steady_goodput_ops": steady_rate,
        "protected_surge_goodput_ops": surge_rate(flash_protected),
        "unprotected_surge_goodput_ops":
            surge_rate(flash_unprotected),
        "protected_surge_ratio": (surge_rate(flash_protected)
                                  / max(steady_rate, 1.0)),
        "unprotected_surge_ratio": (surge_rate(flash_unprotected)
                                    / max(steady_rate, 1.0)),
    }

    # -- autoscale convergence (the protected flash run's record) ------------
    autoscaler = flash_protected["autoscaler"]
    counts = [n for (_t, n) in autoscaler.node_counts]
    tail = counts[-max(len(counts) // 4, 1):]
    autoscale = {
        "initial_nodes": float(counts[0]) if counts else 0.0,
        "peak_nodes": float(max(counts, default=0)),
        "final_nodes": float(counts[-1]) if counts else 0.0,
        "scale_ups": float(autoscaler.scale_ups.value),
        "scale_downs": float(autoscaler.scale_downs.value),
        "scaled_up": float(bool(counts)
                           and max(counts) > counts[0]),
        "converged": float(bool(tail)
                           and all(n == tail[-1] for n in tail)),
    }

    hotshard = _run_hotshard()
    hotshard["p99_split_ratio"] = (
        hotshard["p99_before_s"] / hotshard["p99_after_s"]
        if hotshard["p99_after_s"] > 0 else 0.0)

    summary = {
        "scenarios": float(len(SCENARIOS)),
        "protected_violation_s": protected_violation_s,
        "unprotected_violation_s": unprotected_violation_s,
        # floor the denominator at one scrape window so a perfectly
        # clean protected matrix still yields a finite ratio
        "violation_seconds_ratio": (
            unprotected_violation_s
            / max(protected_violation_s, SCRAPE_INTERVAL_S)),
    }
    return {
        "matrix": matrix,
        "flash": flash,
        "autoscale": autoscale,
        "hotshard": hotshard,
        "summary": summary,
    }
