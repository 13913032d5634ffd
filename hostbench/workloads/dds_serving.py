"""dds_serving: the paper's Section-9 headline, mirrored on ``s9``.

One BF-2 storage server and one client machine on a point-to-point
wire, 8 kernel-TCP connections, the page-server mix (90 % ``GetPage``,
10 % log replay) arriving open-loop at 400 kreq/s — once served by
``DpdpuRuntime.dds`` and once by the ``HostServedStorage`` twin, both
fed the same arrival instants and the same requests.  Arrivals are
Poisson (``poisson_instants``, seeded): evenly spaced arrivals at this
rate never queue, every request then takes the same 92.85 us whatever
the seed, and the p99 says nothing.  Latency is taken on the DDS side
from each request's scheduled arrival (the handler fires exactly then,
so generator lateness is 0 by construction).
"""

from __future__ import annotations

from repro.baselines import HostServedStorage, make_kernel_tcp
from repro.core import (DdsClient, DpdpuRuntime, encode_log_replay,
                        encode_read)
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.sim import Environment, EventPopulation
from repro.units import MiB, PAGE_SIZE
from repro.workloads import PageServerWorkload

from .base import (Outcome, Scenario, core_counts, cpu_counts,
                   nic_counts, poisson_instants, run_sliced, ssd_ios,
                   tcp_counts)

RATE_PER_S = 400_000.0
CONNECTIONS = 8
READ_FRACTION = 0.9
DATABASE_BYTES = 256 * MiB
REPLAY_WORKING_SET = 32 * MiB
PORT = 9200
#: post-load drain so every request is answered before collect
DRAIN_S = 4.0e-3
#: an answer later than this does not count as goodput
LATENCY_LIMIT_S = 1.0e-3
#: simulated time between two ``pace()`` calls (~80 ms of host time)
SLICE_S = 1.0e-3


class _Side:
    """One storage server (DDS or host-served) plus its client machine."""

    def __init__(self, use_dds: bool):
        self.env = env = Environment()
        self.storage = make_server(env, name="storage",
                                   dpu_profile=BLUEFIELD2)
        self.client_machine = make_server(env, name="client",
                                          dpu_profile=None)
        connect(self.storage, self.client_machine)
        self.runtime = self.dds = self.served = None
        if use_dds:
            self.runtime = DpdpuRuntime(self.storage,
                                        se_ring_capacity=1 << 16)
            self.file_id = self.runtime.storage.create(
                "db", size=DATABASE_BYTES)
            self.dds = self.runtime.dds(port=PORT)
            self.server_tcp = self.runtime.network.tcp
        else:
            self.served = HostServedStorage(self.storage, port=PORT)
            self.file_id = self.served.create_file("db", DATABASE_BYTES)
            self.server_tcp = self.served.tcp
        self.client_tcp = make_kernel_tcp(self.client_machine, "c-tcp")
        self.clients = []
        self.messages = []
        self.requests = []
        self.host_cores = 0.0

    def encode(self, page_requests) -> None:
        for request in page_requests:
            if request.kind == "get_page":
                self.messages.append(encode_read(
                    self.file_id, request.offset, request.size))
            else:
                self.messages.append(encode_log_replay(
                    self.file_id, request.offset, request.size,
                    working_set=request.working_set))

    def connect(self) -> None:
        def dial():
            for _ in range(CONNECTIONS):
                connection = yield from self.client_tcp.connect(PORT)
                self.clients.append(DdsClient(connection))

        self.env.run(until=self.env.process(dial()))

    def run(self, duration_s: float, seed: int, pace) -> None:
        env, host_cpu = self.env, self.storage.host_cpu
        clients, messages, requests = (self.clients, self.messages,
                                       self.requests)

        def handler(i):
            requests.append(clients[i % CONNECTIONS].submit(messages[i]))

        busy_before = host_cpu.busy_seconds()
        start = env.now
        EventPopulation(
            env, poisson_instants(seed, len(messages), start, duration_s),
            handler, name="load")
        run_sliced(env, start + duration_s, SLICE_S, pace)
        self.host_cores = ((host_cpu.busy_seconds() - busy_before)
                           / duration_s)
        run_sliced(env, start + duration_s + DRAIN_S, SLICE_S, pace)

    def latencies_s(self):
        return [request.latency if request.completed
                and not request.failed else None
                for request in self.requests]


class DdsServing(Scenario):
    """See the module docstring."""

    name = "dds_serving"
    FULL = {"requests_per_side": 10_000}
    REDUCED = {"requests_per_side": 1_000}

    def build(self) -> None:
        self.sides = {"dds": _Side(True), "host": _Side(False)}

    def generate(self) -> None:
        count = self.sizes["requests_per_side"]
        workload = PageServerWorkload(
            database_pages=DATABASE_BYTES // PAGE_SIZE,
            read_fraction=READ_FRACTION,
            replay_working_set_bytes=REPLAY_WORKING_SET,
            seed=self.seed)
        page_requests = list(workload.requests(count))
        for side in self.sides.values():
            side.encode(page_requests)

    def connect(self) -> None:
        for side in self.sides.values():
            side.connect()

    def run(self) -> None:
        self.duration_s = self.sizes["requests_per_side"] / RATE_PER_S
        for side in self.sides.values():
            side.run(self.duration_s, self.seed, self.spans.pace)

    def collect(self) -> Outcome:
        dds, host = self.sides["dds"], self.sides["host"]
        sides = list(self.sides.values())
        latencies, host_latencies = dds.latencies_s(), host.latencies_s()
        answered = [value for value in latencies if value is not None]
        server = dds.dds
        storage = dds.runtime.storage
        compute = dds.runtime.compute
        counts = {}
        counts.update(core_counts(side.env for side in sides))
        counts.update(cpu_counts(
            [s.storage.host_cpu for s in sides]
            + [s.client_machine.host_cpu for s in sides],
            [s.storage.dpu.cpu for s in sides]))
        counts.update(nic_counts(
            [s.storage.nic for s in sides]
            + [s.client_machine.nic for s in sides]))
        counts.update(tcp_counts(
            [s.client_tcp for s in sides]
            + [s.server_tcp for s in sides]))
        counts.update({
            "hardware.ssd.ios": ssd_ios(s.storage for s in sides),
            "core.dds.offloaded": server.offloaded.value,
            "core.dds.forwarded": server.forwarded.value,
            "core.dds.cores_saved": host.host_cores - dds.host_cores,
            "core.ce.kernel_execs": compute.kernel_executions.value,
            "core.ce.degraded": compute.degraded.value,
            "core.se.dpu_ops": storage.dpu_ops.value,
            "core.se.host_ops": storage.host_ops.value,
            "workloads.ops_generated": float(len(dds.messages)),
            "client.issued": float(len(latencies)),
            "client.ok": float(sum(1 for v in answered
                                   if v <= LATENCY_LIMIT_S)),
            "client.late": float(sum(1 for v in answered
                                     if v > LATENCY_LIMIT_S)),
            "client.error": float(sum(1 for r in dds.requests
                                      if r.failed)),
            "client.pending": float(sum(1 for r in dds.requests
                                        if not r.completed)),
        })
        simulated = {
            "counts": counts,
            "dds_host_cores": dds.host_cores,
            "host_host_cores": host.host_cores,
            "offload_fraction": server.offload_fraction,
            "host_served": host.served.requests_served.value,
            "dds_latencies_s": latencies,
            "host_latencies_s": host_latencies,
        }
        checks = [
            ("every_request_answered",
             len(answered) == len(latencies) == len(dds.messages)
             == len(host_latencies) and None not in host_latencies),
            ("offload_fraction_positive", server.offload_fraction > 0),
            ("baseline_cores_exceed_dds",
             host.host_cores > dds.host_cores),
        ]
        return Outcome(
            simulated=simulated,
            latencies_us=[None if v is None else v * 1e6
                          for v in latencies],
            censor_us=(self.duration_s + DRAIN_S) * 1e6,
            good=int(counts["client.ok"]),
            window_s=self.duration_s,
            host_cores=dds.host_cores,
            sim_ops=2 * len(latencies),
            counts=counts,
            checks=checks,
        )
