#!/usr/bin/env python3
"""A FASTER-style KV store on DDS (the paper's Section 9 integration).

Deployment: a storage server with a BlueField-2 DPU runs DDS; a
compute server runs a KV front end whose gets/puts become remote page
reads/writes over kernel TCP.  We run a YCSB-B mix twice — against
the conventional host-served baseline and against DDS — and compare
where the storage server spends CPU.

Run:  python examples/disaggregated_kv_store.py
"""

from repro.baselines import HostServedStorage
from repro.baselines.host_tcp import make_kernel_tcp
from repro.core import DdsClient, DpdpuRuntime, encode_read, encode_write
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.sim import Environment
from repro.units import MiB, fmt_time
from repro.workloads import KvStoreIndex, YcsbWorkload

N_OPS = 2_000
PORT = 9000


def run_deployment(use_dds: bool) -> dict:
    env = Environment()
    storage = make_server(env, name="storage", dpu_profile=BLUEFIELD2)
    compute = make_server(env, name="compute", dpu_profile=None)
    connect(storage, compute)

    if use_dds:
        runtime = DpdpuRuntime(storage)
        file_id = runtime.storage.create("faster.log", size=256 * MiB)
        dds = runtime.dds(port=PORT)
    else:
        served = HostServedStorage(storage, port=PORT)
        file_id = served.create_file("faster.log", 256 * MiB)
        dds = None

    # The KV front end on the compute server.
    index = KvStoreIndex(n_keys=50_000)
    workload = YcsbWorkload(index, read_fraction=0.95, seed=20)
    client_tcp = make_kernel_tcp(compute, "kv-frontend")
    stats = {}

    def kv_frontend():
        connection = yield from client_tcp.connect(PORT)
        client = DdsClient(connection, name="kv")
        pending = []
        for op in workload.ops(N_OPS):
            offset = op.offset % (192 * MiB)
            if op.kind == "get":
                request = client.submit(
                    encode_read(file_id, offset, op.size))
            else:
                request = client.submit(
                    encode_write(file_id, offset, op.size))
            pending.append(request)
            # Keep a pipeline of 32 requests in flight.
            if len(pending) >= 32:
                yield pending.pop(0).done
        for request in pending:
            yield request.done
        stats["mean_latency"] = client.request_latency.mean
        stats["p99_latency"] = client.request_latency.p99
        stats["elapsed"] = env.now

    env.run(until=env.process(kv_frontend()))
    elapsed = stats["elapsed"]
    stats["throughput"] = N_OPS / elapsed
    stats["host_cores"] = storage.host_cpu.busy_seconds() / elapsed
    stats["dpu_cores"] = (
        storage.dpu.cpu.busy_seconds() / elapsed
        if storage.dpu else 0.0
    )
    stats["offloaded"] = dds.offloaded.value if dds else 0
    return stats


def main():
    print(f"YCSB-B ({N_OPS} ops, 95% reads, zipfian keys)\n")
    baseline = run_deployment(use_dds=False)
    dds = run_deployment(use_dds=True)

    def show(tag, stats):
        print(f"{tag}:")
        print(f"  throughput:          {stats['throughput']:,.0f} ops/s")
        print(f"  mean latency:        {fmt_time(stats['mean_latency'])}")
        print(f"  p99 latency:         {fmt_time(stats['p99_latency'])}")
        print(f"  storage-server host: {stats['host_cores']:.2f} cores")
        print(f"  storage-server DPU:  {stats['dpu_cores']:.2f} cores")
        if stats["offloaded"]:
            print(f"  requests offloaded:  {stats['offloaded']:,.0f}")
        print()

    show("conventional host-served storage", baseline)
    show("DDS (DPDPU storage engine)", dds)
    saved = baseline["host_cores"] - dds["host_cores"]
    print(f"host cores saved by DDS at this load: {saved:.2f}")
    print("(scales with request rate — see `python -m repro.bench s9`"
          " for the line-rate extrapolation)")


if __name__ == "__main__":
    main()
