"""Experiments F6–F8 and S9: the DPDPU system-level results.

F6 — the Figure 6 sproc (read pages → compress → send), under
specified vs scheduled execution and across DPU profiles.
F7 — Figure 7's RDMA offload: host issue cost native vs NE.
F8 — Figure 8's round-trip saving: remote read latency, host path vs
DDS path.
S9 — the Section 9 DDS claim: host CPU cores saved per storage
server under FASTER-like (KV) and page-server request mixes.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..baselines import HostServedStorage, make_host_rdma_node
from ..baselines.host_tcp import make_kernel_tcp
from ..buffers import SynthBuffer
from ..core import (DdsClient, DpdpuRuntime, encode_log_replay,
                    encode_read, encode_write)
from ..hardware import (
    BLUEFIELD2,
    GENERIC_DPU,
    DpuProfile,
    connect,
    make_server,
)
from ..sim import Environment
from ..units import Gbps, MiB, PAGE_SIZE
from ..workloads import PageServerWorkload, YcsbWorkload, KvStoreIndex, open_loop
from .harness import CoreMeter, Sweep

__all__ = [
    "fig6_sproc",
    "fig7_rdma",
    "fig8_dds_latency",
    "s9_dds_cores",
    "LINE_RATE_MSGS_PER_S",
    "fig6_parts",
    "fig7_parts",
    "fig8_parts",
    "s9_parts",
]

#: 8 KiB messages at 100 Gbps — the "line rate" used to extrapolate
#: the S9 cores-saved figure the way the paper states it.
LINE_RATE_MSGS_PER_S = 100 * Gbps / ((PAGE_SIZE + 66) * 8)


# ---------------------------------------------------------------- F6


def fig6_sproc(profile: DpuProfile = BLUEFIELD2,
               mode: str = "specified",
               n_invocations: int = 20,
               telemetry=None) -> Dict[str, float]:
    """Run the paper's Figure 6 sproc end to end.

    The sproc reads a set of pages through the SE, compresses them
    with ``dpk_compress`` (specified: ASIC with CPU fallback;
    scheduled: engine-chosen), and sends the compressed pages to a
    remote client through the NE — returning throughput, latency, and
    where compression actually ran.  Pass a fresh
    :class:`~repro.obs.Telemetry` to trace the run.
    """
    pages_per_request = 8
    if mode not in ("specified", "scheduled"):
        raise ValueError(f"unknown mode {mode!r}")
    env = Environment()
    server = make_server(env, name="dpu", dpu_profile=profile)
    client = make_server(env, name="client", dpu_profile=None)
    connect(server, client)
    runtime = DpdpuRuntime(server, telemetry=telemetry)
    file_id = runtime.storage.create("pages", size=64 * MiB)

    client_tcp = make_kernel_tcp(client, "client-tcp")
    listener = client_tcp.listen(7100)
    received = []

    def client_rx():
        connection = yield listener.accept()
        while True:
            message = yield connection.recv_message()
            received.append(message.size)

    env.process(client_rx())

    devices_used = []

    def read_compress_send_pages(ctx, request):
        """Figure 6, transcribed to this library's API."""
        dpk_compress = ctx.dpk("compress")
        page_read_list = []
        for page_index in request["pages"]:
            read_req = ctx.se.read(page_index["file_id"],
                                   page_index["addr"], PAGE_SIZE)
            page_read_list.append(read_req)
        page_comp_list = []
        for read_req in page_read_list:
            data = yield from ctx.wait(read_req)
            if mode == "specified":
                comp_req = dpk_compress(data, "dpu_asic")
                if comp_req is None:
                    comp_req = dpk_compress(data, "dpu_cpu")
            else:
                comp_req = dpk_compress(data)
            page_comp_list.append(comp_req)
        send_list = []
        for comp_req in page_comp_list:
            compressed = yield from ctx.wait(comp_req)
            devices_used.append(comp_req.device)
            yield from request["client"].send_message(compressed)
        return len(page_comp_list)

    runtime.compute.register_sproc("read_compress_send_pages",
                                   read_compress_send_pages)

    outcome: Dict[str, float] = {}

    def driver():
        connection = yield from runtime.network.tcp.connect(7100)
        started = env.now
        for batch in range(n_invocations):
            pages = [
                {"file_id": file_id,
                 "addr": ((batch * pages_per_request + i)
                          % ((64 * MiB) // PAGE_SIZE)) * PAGE_SIZE}
                for i in range(pages_per_request)
            ]
            invocation = runtime.compute.invoke(
                "read_compress_send_pages",
                {"pages": pages, "client": connection},
            )
            yield invocation.done
        elapsed = env.now - started
        total_pages = n_invocations * pages_per_request
        outcome["pages_per_s"] = total_pages / elapsed
        outcome["latency_per_invocation_s"] = elapsed / n_invocations

    env.run(until=env.process(driver()))
    env.run(until=env.now + 0.01)
    outcome["pages_received"] = float(len(received))
    outcome["asic_fraction"] = (
        devices_used.count("dpu_asic") / len(devices_used)
        if devices_used else 0.0
    )
    outcome["bytes_received"] = float(sum(received))
    return outcome


# ---------------------------------------------------------------- F7


#: Figure 7's closed-loop clients and the WRITEs each issues
FIG7_CLIENTS, FIG7_OPS_PER_CLIENT = 16, 50


def fig7_rdma() -> Dict[str, float]:
    """Figure 7: RDMA issuing, native host vs NE-offloaded.

    Closed-loop clients issue one-sided WRITEs; reports host
    cycles/op, throughput, and mean op latency for both paths.
    """
    out: Dict[str, float] = {}
    payload_bytes = 4096

    # -- native host issuing ------------------------------------------------
    env = Environment()
    initiator = make_server(env, name="ini", dpu_profile=None)
    target = make_server(env, name="tgt", dpu_profile=None)
    connect(initiator, target)
    local = make_host_rdma_node(initiator, "ini-rdma")
    remote = make_host_rdma_node(target, "tgt-rdma")
    remote.register_region("pool", 256 * MiB)
    from ..netstack.rdma import connect_qp
    qps = [connect_qp(local, remote)[0] for _ in range(FIG7_CLIENTS)]
    base_cycles = initiator.host_cpu.cycles_charged.value

    def native_client(qp, index):
        for i in range(FIG7_OPS_PER_CLIENT):
            offset = ((index * FIG7_OPS_PER_CLIENT + i) * payload_bytes) \
                % (128 * MiB)
            done = yield from qp.post_write(
                "pool", offset, SynthBuffer(payload_bytes)
            )
            yield done

    start = env.now
    procs = [env.process(native_client(qp, i))
             for i, qp in enumerate(qps)]
    env.run(until=env.all_of(procs))
    total_ops = FIG7_CLIENTS * FIG7_OPS_PER_CLIENT
    out["native_host_cycles_per_op"] = (
        (initiator.host_cpu.cycles_charged.value - base_cycles)
        / total_ops
    )
    out["native_ops_per_s"] = total_ops / (env.now - start)
    out["native_latency_s"] = (env.now - start) / FIG7_OPS_PER_CLIENT

    # -- NE offloaded issuing -------------------------------------------------
    env = Environment()
    initiator = make_server(env, name="ini", dpu_profile=BLUEFIELD2)
    target = make_server(env, name="tgt", dpu_profile=None)
    connect(initiator, target)
    runtime = DpdpuRuntime(initiator)
    remote = make_host_rdma_node(target, "tgt-rdma")
    remote.register_region("pool", 256 * MiB)
    facades = [runtime.network.rdma_qp(remote) for _ in range(FIG7_CLIENTS)]
    env.run(until=1e-6)
    base_cycles = initiator.host_cpu.cycles_charged.value

    def offloaded_client(qp, index):
        for i in range(FIG7_OPS_PER_CLIENT):
            offset = ((index * FIG7_OPS_PER_CLIENT + i) * payload_bytes) \
                % (128 * MiB)
            yield qp.write("pool", offset,
                           SynthBuffer(payload_bytes)).done

    start = env.now
    procs = [env.process(offloaded_client(qp, i))
             for i, qp in enumerate(facades)]
    env.run(until=env.all_of(procs))
    env.run(until=env.now + 1e-4)    # drain async host charges
    out["offloaded_host_cycles_per_op"] = (
        (initiator.host_cpu.cycles_charged.value - base_cycles)
        / total_ops
    )
    out["offloaded_ops_per_s"] = total_ops / (env.now - start)
    out["offloaded_latency_s"] = (env.now - start) / FIG7_OPS_PER_CLIENT
    out["host_cycles_saved_factor"] = (
        out["native_host_cycles_per_op"]
        / max(out["offloaded_host_cycles_per_op"], 1e-9)
    )
    return out


# ---------------------------------------------------------------- F8


#: Figure 8's remote reads per path
FIG8_READS = 200


def fig8_dds_latency(telemetry=None) -> Dict[str, float]:
    """Figure 8: remote 8 KiB read latency, host path vs DDS path.

    Pass a fresh :class:`~repro.obs.Telemetry` to trace the DDS path
    (the host-path baseline runs untraced either way).
    """
    out: Dict[str, float] = {}

    def run_one(use_dds: bool) -> Dict[str, float]:
        env = Environment()
        storage = make_server(env, name="storage",
                              dpu_profile=BLUEFIELD2)
        client_machine = make_server(env, name="client",
                                     dpu_profile=None)
        connect(storage, client_machine)
        if use_dds:
            runtime = DpdpuRuntime(storage, telemetry=telemetry)
            file_id = runtime.storage.create("db", size=256 * MiB)
            runtime.dds(port=9100)
        else:
            served = HostServedStorage(storage, port=9100)
            file_id = served.create_file("db", 256 * MiB)
        client_tcp = make_kernel_tcp(client_machine, "c-tcp")
        stats = {}

        def client_proc():
            connection = yield from client_tcp.connect(9100)
            dds_client = DdsClient(connection)
            for i in range(FIG8_READS):
                yield from dds_client.read(
                    file_id,
                    (i % (256 * MiB // PAGE_SIZE)) * PAGE_SIZE,
                )
            stats["mean"] = dds_client.request_latency.mean
            stats["p99"] = dds_client.request_latency.p99

        env.run(until=env.process(client_proc()))
        return stats

    host = run_one(use_dds=False)
    dds = run_one(use_dds=True)
    out["host_path_mean_s"] = host["mean"]
    out["host_path_p99_s"] = host["p99"]
    out["dds_mean_s"] = dds["mean"]
    out["dds_p99_s"] = dds["p99"]
    out["latency_saving_fraction"] = 1 - dds["mean"] / host["mean"]
    return out


# ---------------------------------------------------------------- S9


def s9_dds_cores(
    rates_kreq: Sequence[int] = (100, 200, 300, 400),
    duration_s: float = 0.02,
    workload: str = "pageserver",
    read_fraction: float = 0.9,
) -> Sweep:
    """Section 9: host cores consumed with and without DDS.

    Sweeps request rate; series: ``baseline_host_cores``,
    ``dds_host_cores``, ``dds_dpu_cores``, ``cores_saved`` and the
    line-rate extrapolation ``cores_saved_at_line_rate``.
    """
    if workload not in ("pageserver", "kv"):
        raise ValueError(f"unknown workload {workload!r}")
    sweep = Sweep("kreq_per_s")
    for rate_kreq in rates_kreq:
        rate = rate_kreq * 1000.0
        baseline = _s9_point(rate, duration_s, workload, read_fraction,
                             n_connections=8, use_dds=False)
        dds = _s9_point(rate, duration_s, workload, read_fraction,
                        n_connections=8, use_dds=True)
        saved = baseline["host_cores"] - dds["host_cores"]
        # Cost side of the claim: price both servers at NIC line rate
        # (where the "10s of cores" live), scaling the measured
        # per-request core costs.
        from .tco import storage_server_cost
        scale = LINE_RATE_MSGS_PER_S / rate
        baseline_line_cost = storage_server_cost(
            baseline["host_cores"] * scale, uses_dpu=False
        )
        dds_line_cost = storage_server_cost(
            dds["host_cores"] * scale, uses_dpu=True
        )
        sweep.add(
            rate_kreq,
            baseline_host_cores=baseline["host_cores"],
            dds_host_cores=dds["host_cores"],
            dds_dpu_cores=dds["dpu_cores"],
            cores_saved=saved,
            cores_saved_at_line_rate=saved * scale,
            line_rate_baseline_dollars_hr=baseline_line_cost,
            line_rate_dds_dollars_hr=dds_line_cost,
        )
    return sweep


def _make_requests(workload: str, read_fraction: float, count: int,
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


def _s9_point(rate: float, duration_s: float, workload: str,
              read_fraction: float, n_connections: int,
              use_dds: bool) -> Dict[str, float]:
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
    requests = _make_requests(workload, read_fraction, count, file_id)
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


# -- structured runners for the CLI / artifact ------------------------------


def fig6_parts(telemetry) -> Dict[str, Dict[str, float]]:
    """F6: the sproc under each execution mode / profile.

    Tracing covers the first configuration only: one Telemetry
    adopts one runtime's instruments (duplicate-name protection).
    """
    return {"sproc": {
        "bf2/specified": fig6_sproc(BLUEFIELD2, "specified",
                                    telemetry=telemetry),
        "bf2/scheduled": fig6_sproc(BLUEFIELD2, "scheduled"),
        "generic/fallback": fig6_sproc(GENERIC_DPU, "specified"),
    }}


def fig7_parts() -> Dict[str, Dict[str, float]]:
    """F7: RDMA issuing, native host vs NE-offloaded."""
    return {"rdma": fig7_rdma()}


def fig8_parts(telemetry) -> Dict[str, Dict[str, float]]:
    """F8: remote-read latency, host path vs DDS path."""
    return {"dds_latency": fig8_dds_latency(telemetry=telemetry)}


def s9_parts() -> Dict[str, Sweep]:
    """S9: DDS cores saved under both request mixes."""
    return {
        "pageserver": s9_dds_cores(duration_s=0.01),
        "kv": s9_dds_cores(duration_s=0.01, workload="kv",
                           read_fraction=0.95),
    }
