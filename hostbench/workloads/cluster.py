"""cluster_chaos / cluster_traced: the ``slo`` failover shape, pure DES.

A 3-node ``Cluster`` behind the ToR switch; 6 ``ClusterClient``
machines (10 % of requests routed stale, so the DPU-side router
forwards them), half reads half writes, every request stamped with a
1.5 ms deadline; an ``AdmissionController`` on every node, an
``Autoscaler`` allowed to grow 3 -> 5 nodes, a ``ClusterTelemetry``
plane with an ``SloMonitor``; node1's DPU Arm cores crash at 2 ms.
Arrivals are open-loop, one seeded Poisson stream per client
(``poisson_instants``: each fired exactly when due, so generator
lateness is 0 by construction) and latency runs from the scheduled
arrival.

Clients do not retry, so a request sent to the dead DPU is never
answered: about 6 % of the run's requests are lost in the three
milliseconds it takes to detect the crash and move node1's shards.
A p99 over the whole run would read the censoring horizon whatever
the model does, so the p99 is taken over the requests due after
``healed_from_s``, when the cluster serves everything again; what the
outage costs shows in ``sim_goodput_ops``.

``cluster_traced`` is the identical scenario with the plane's tracing
on; its collect additionally builds the attribution report and the
merged Chrome event list.  Tracing is meant to only read, so both
should produce the same simulated digest — they do not today (see
"Findings" in ``hostbench/README.md``), so the twin check is a
tolerance until that is fixed.
"""

from __future__ import annotations

from repro.cluster import (AutoscalePolicy, Autoscaler, Cluster,
                           ClusterClient, Rebalancer, encode_shard_read,
                           encode_shard_write, response_ok, stable_hash)
from repro.core import AdmissionController, TenantRegistry
from repro.faults import FaultInjector, FaultPlan
from repro.obs import (ClusterTelemetry, SloMonitor, SloSpec,
                       build_report, merge_chrome_events)
from repro.sim import Environment, EventPopulation
from repro.units import PAGE_SIZE
from repro.workloads import arrival_count

from ..measure import percentile
from .base import (Outcome, Scenario, core_counts, cpu_counts,
                   nic_counts, poisson_instants, run_sliced, ssd_ios,
                   tcp_counts)

NODES = 3
MAX_NODES = 5
CLIENTS = 6
#: the node whose DPU crashes, and where clients send their stale
#: fraction.  The crashed node is nobody's home: a stale request to a
#: dead home is never answered, which would go on losing 3 % of the
#: requests long after the shards have moved.
CRASHED = "node1"
HOMES = ("node0", "node2")
STALE_FRACTION = 0.1
READ_FRACTION = 0.5
RATE_PER_CLIENT = 100_000.0
DEADLINE_S = 1.5e-3
FAULT_START_S = 2.0e-3
DRAIN_S = 2.5e-3
#: simulated time between two ``pace()`` calls (~100 ms of host time)
SLICE_S = 5.0e-4
SCRAPE_INTERVAL_S = 2.5e-4
#: virtual ring points per node: near-even shard placement, so the
#: scenario stresses capacity rather than hash luck (as in ``slo``)
RING_REPLICAS = 512
#: admission tuning (as in ``slo``)
MAX_QUEUE = 128
SERVICE_RATE_OPS = 150_000.0
REJECT_RATE_HIGH = 40_000.0
ONTIME_FLOOR = 0.5


def _stream(seed: int, client: int, count: int, n_shards: int,
            shard_pages: int):
    """One client's (message, shard, offset) inputs, a pure function
    of ``(seed, client, index)`` through crc32."""
    stream = []
    for k in range(count):
        tag = f"{seed}:{client}:{k}"
        shard = stable_hash(f"sh:{tag}") % n_shards
        offset = (stable_hash(f"of:{tag}") % shard_pages) * PAGE_SIZE
        if stable_hash(f"rw:{tag}") % 10_000 < READ_FRACTION * 10_000:
            message = encode_shard_read(shard, offset)
        else:
            message = encode_shard_write(shard, offset)
        stream.append((message, shard, offset))
    return stream


class ClusterChaos(Scenario):
    """See the module docstring."""

    name = "cluster_chaos"
    tracing = False
    #: ``healed_from_s`` after the start of the load no request is
    #: lost any more, and the p99 is taken over the requests due from
    #: there to the end; the reduced run ends before that, so its p99
    #: is over the whole run and reads the horizon
    FULL = {"duration_s": 15.0e-3, "healed_from_s": 8.0e-3}
    REDUCED = {"duration_s": 3.5e-3, "healed_from_s": None}

    def build(self) -> None:
        self.env = env = Environment()
        duration = self.sizes["duration_s"]
        plan = FaultPlan(seed=self.seed).cpu_crash(
            FAULT_START_S, 10 * duration, site=f"cpu.{CRASHED}.dpu.cpu")
        self.injector = FaultInjector(env, plan)
        self.plane = plane = ClusterTelemetry(
            tracing=self.tracing, name=self.name,
            scrape_interval_s=SCRAPE_INTERVAL_S)
        plane.monitor = SloMonitor((
            SloSpec("ontime_floor", metric="ontime_fraction",
                    bound=ONTIME_FLOOR, kind="min", min_windows=2),))
        self.cluster = cluster = Cluster(
            env, NODES, replicas=RING_REPLICAS, injector=self.injector,
            telemetry=plane)
        self.armed = []      # names of nodes given a controller

        def arm(node):
            node.dds.admission = AdmissionController(
                env, TenantRegistry(env),
                registry=plane.node(node.name).metrics,
                max_queue=MAX_QUEUE, service_rate_ops=SERVICE_RATE_OPS,
                slo_target_s=DEADLINE_S, name=f"admission.{node.name}")
            self.armed.append(node.name)

        for node in cluster.nodes:
            arm(node)
        self.autoscaler = Autoscaler(
            cluster, plane, Rebalancer(cluster),
            interval_s=SCRAPE_INTERVAL_S,
            policy=AutoscalePolicy(
                p99_high_s=1.2e-3, p99_low_s=0.0, occupancy_low=0.0,
                min_nodes=NODES, max_nodes=MAX_NODES, cooldown_s=5.0e-4,
                hot_shard_ratio=1e6, min_heat=1e9, min_windows=1,
                reject_rate_high=REJECT_RATE_HIGH),
            node_hook=arm)
        self.clients = [
            ClusterClient(cluster, f"client{i}",
                          home=HOMES[i % len(HOMES)],
                          stale_fraction=STALE_FRACTION, sli_plane=plane,
                          sli_deadline_s=DEADLINE_S,
                          stamp_deadline_s=DEADLINE_S)
            for i in range(CLIENTS)]

    def generate(self) -> None:
        cluster = self.cluster
        count = arrival_count(RATE_PER_CLIENT, self.sizes["duration_s"])
        self.streams = [
            _stream(self.seed, i, count, cluster.shardmap.n_shards,
                    cluster.shard_bytes // PAGE_SIZE)
            for i in range(CLIENTS)]

    def connect(self) -> None:
        env = self.env

        def dial():
            for client in self.clients:
                yield from client.connect_all()

        env.run(until=env.process(dial()))
        for client in self.clients:
            env.process(client.track_topology(),
                        name=f"{client.name}-topo")

    def run(self) -> None:
        env, duration = self.env, self.sizes["duration_s"]

        def handler_for(client, stream):
            def handle(k):
                message, shard, offset = stream[k]
                client.submit(message, shard, tag=k, offset=offset)
            return handle

        self.start_s = start = env.now
        # the host cores of the node whose DPU dies: what falling
        # back to the host costs (its host serves the shard export)
        host_cpu = self.cluster.node(CRASHED).server.host_cpu
        busy_before = host_cpu.busy_seconds()
        for index, (client, stream) in enumerate(
                zip(self.clients, self.streams)):
            EventPopulation(
                env, poisson_instants(f"{self.seed}:{index}", len(stream),
                                      start, duration),
                handler_for(client, stream), name=f"load-{client.name}")
        run_sliced(env, start + duration, SLICE_S, self.spans.pace)
        self.host_cores = ((host_cpu.busy_seconds() - busy_before)
                           / duration)
        run_sliced(env, start + duration + DRAIN_S, SLICE_S,
                   self.spans.pace)

    def _observability(self, counts: dict, checks: list) -> None:
        """What only the traced twin adds to collect."""

    def collect(self) -> Outcome:
        cluster, plane, clients = self.cluster, self.plane, self.clients
        nodes = cluster.nodes
        duration = self.sizes["duration_s"]
        healed_from_s = self.sizes["healed_from_s"]
        latencies, healed = [], []
        ok = late = error = pending = 0
        for client in clients:
            for request, (_shard, due_s) in zip(client.requests,
                                                client.request_meta):
                if not request.completed:
                    pending += 1
                    latency = None
                elif request.failed or not response_ok(request.data):
                    error += 1
                    latency = None
                else:
                    latency = request.latency
                    if latency > DEADLINE_S:
                        late += 1
                    else:
                        ok += 1
                latencies.append(latency)
                if (healed_from_s is None
                        or due_s - self.start_s >= healed_from_s):
                    healed.append(latency)
        issued = len(latencies)
        admitted = rejected = 0.0
        for name in self.armed:
            verdicts = plane.node(name).metrics.snapshot(self.env.now)
            for key, value in verdicts.items():
                if key.startswith("tenant."):
                    if key.endswith(".admitted"):
                        admitted += value
                    elif key.endswith((".rejected", ".shed")):
                        rejected += value
        servers = ([node.server for node in nodes]
                   + [client.server for client in clients])
        counts = {}
        counts.update(core_counts([self.env]))
        counts.update(cpu_counts(
            [server.host_cpu for server in servers],
            [node.server.dpu.cpu for node in nodes]))
        counts.update(nic_counts(server.nic for server in servers))
        counts.update(tcp_counts(
            [client.stack for client in clients]
            + [node.runtime.network.tcp for node in nodes]))
        counts.update({
            "hardware.switch.frames":
                cluster.switch.frames_forwarded.value,
            "hardware.switch.drops": cluster.switch.frames_dropped.value,
            "hardware.ssd.ios": ssd_ios(node.server for node in nodes),
            # shard requests bypass the stock DDS offload counters:
            # served-at-owner is the offloaded path, the host SE ring
            # (DPU down or breaker open) the forwarded one
            "core.dds.offloaded":
                sum(node.dds.shard_local.value for node in nodes),
            "core.dds.forwarded": sum(
                node.runtime.storage.host_ops.value for node in nodes),
            "core.admission.admitted": admitted,
            "core.admission.rejected": rejected,
            "core.ce.kernel_execs": sum(
                node.runtime.compute.kernel_executions.value
                for node in nodes),
            "core.ce.degraded": sum(
                node.runtime.compute.degraded.value for node in nodes),
            "core.se.dpu_ops": sum(
                node.runtime.storage.dpu_ops.value for node in nodes),
            "core.se.host_ops": sum(
                node.runtime.storage.host_ops.value for node in nodes),
            "cluster.router.forwards":
                sum(node.router.forwards.value for node in nodes),
            "cluster.router.forward_failures": sum(
                node.router.forward_failures.value for node in nodes),
            "cluster.shard_failovers":
                sum(node.dds.shard_failovers.value for node in nodes),
            "cluster.nodes_final":
                float(sum(1 for node in nodes if not node.retired)),
            "obs.scrapes": float(plane.latest().version
                                 if plane.latest() else 0),
            "faults.injected": self.injector.injected.value,
            "workloads.ops_generated":
                float(sum(len(stream) for stream in self.streams)),
            "client.issued": float(issued),
            "client.ok": float(ok),
            "client.late": float(late),
            "client.error": float(error),
            "client.pending": float(pending),
        })
        simulated = {
            "counts": dict(counts),
            "host_cores": self.host_cores,
            "cluster_counters": cluster.metrics_snapshot(),
            "scale_ups": self.autoscaler.scale_ups.value,
            "node_counts": self.autoscaler.node_counts,
            "slo_violations": len(plane.monitor.violations),
            "latencies_s": latencies,
        }
        checks = [
            ("outcomes_sum_to_issued",
             ok + late + error + pending == issued
             == counts["workloads.ops_generated"]),
            # or the p99 below reads the censoring horizon again
            ("healed_window_loses_under_1pct",
             healed_from_s is None
             or healed.count(None) < 0.01 * len(healed)),
        ]
        self._observability(counts, checks)
        return Outcome(
            simulated=simulated,
            latencies_us=[None if v is None else v * 1e6
                          for v in latencies],
            censor_us=(duration + DRAIN_S) * 1e6,
            good=ok,
            window_s=duration,
            host_cores=self.host_cores,
            sim_ops=issued,
            counts=counts,
            checks=checks,
            tail_latencies_us=[None if v is None else v * 1e6
                               for v in healed],
        )


class ClusterTraced(ClusterChaos):
    """``cluster_chaos`` with tracing on and the reports built."""

    name = "cluster_traced"
    tracing = True
    untraced_twin = ClusterChaos

    @staticmethod
    def twin_checks(traced: Outcome, untraced: Outcome) -> list:
        """Traced vs untraced twin: same inputs, results within 1-2 %.

        Should be digest equality; the traced TCP send path perturbs
        timing by microseconds today (README, "Findings").
        """
        def p50(outcome):
            return percentile([outcome.censor_us if v is None else v
                               for v in outcome.latencies_us], 0.5)

        return [
            ("twin_same_inputs",
             traced.sim_ops == untraced.sim_ops
             and traced.counts["workloads.ops_generated"]
             == untraced.counts["workloads.ops_generated"]),
            ("twin_goodput_within_1pct",
             abs(traced.good - untraced.good) <= 0.01 * untraced.good),
            ("twin_p50_within_2pct",
             abs(p50(traced) - p50(untraced)) <= 0.02 * p50(untraced)),
        ]

    def _observability(self, counts: dict, checks: list) -> None:
        tracers = self.plane.tracers()
        self.spans.pace()
        report = build_report(tracers)
        self.spans.pace()
        events = merge_chrome_events(tracers)
        self.spans.pace()
        spans = [event for event in events if event.get("ph") == "X"]
        known = {event["args"]["span_id"] for event in spans}
        dangling = sum(
            1 for event in spans
            if event["args"].get("parent_id") is not None
            and event["args"]["parent_id"] not in known)
        error_s = report.max_conservation_error_s()
        counts.update({
            "obs.spans": float(sum(len(tracer.all_spans())
                                   for _node, tracer in tracers)),
            "obs.attr_requests": float(len(report.requests)),
            "obs.conservation_err_s": error_s,
        })
        checks.append(("attribution_conserved", error_s <= 1e-9))
        checks.append(("no_dangling_span_parents", dangling == 0))
