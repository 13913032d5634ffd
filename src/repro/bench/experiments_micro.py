"""Experiments F1–F3: the paper's Section 2 micro-benchmarks.

Each function builds a fresh simulation, drives the workload the
figure describes, and returns a :class:`~repro.bench.harness.Sweep`
whose series correspond to the figure's lines.
"""

from __future__ import annotations

from typing import Sequence

from ..baselines import HostComputeBaseline, HostStoragePath
from ..baselines.host_tcp import make_kernel_tcp
from ..buffers import SynthBuffer
from ..core import DpdpuRuntime
from ..hardware import (
    ARM_HOST,
    BLUEFIELD2,
    EPYC_HOST,
    connect,
    make_server,
)
from ..sim import Environment
from ..units import Gbps, MB, MiB, PAGE_SIZE
from ..workloads import make_text, open_loop
from .harness import CoreMeter, Sweep

__all__ = [
    "fig1_compression",
    "fig1_real_bytes_checkpoint",
    "fig2_storage_cpu",
    "fig3_network_cpu",
    "fig1_parts",
    "fig2_parts",
    "fig3_parts",
]

#: 8 KiB payload + headers on the wire, used to convert Gbps <-> msgs/s.
_WIRE_MSG_BITS = (PAGE_SIZE + 66) * 8

#: connections the Figure-3 senders spread their pages over
_FIG3_CONNECTIONS = 16


#: Figure 1's data sizes
FIG1_SIZES_MB = (1, 4, 16, 64, 256)

#: text the real-bytes companion compresses
FIG1_REAL_BYTES = 256 * 1024


def fig1_compression() -> Sweep:
    """Figure 1: DEFLATE latency vs data size on three devices.

    Series: ``epyc_s`` (EPYC core), ``arm_s`` (Arm A72 core),
    ``bf2_asic_s`` (BlueField-2 compression accelerator).
    """
    sweep = Sweep("size_mb")
    for size_mb in FIG1_SIZES_MB:
        nbytes = size_mb * MB
        env = Environment()
        epyc = make_server(env, name="epyc", host_profile=EPYC_HOST)
        arm = make_server(env, name="arm", host_profile=ARM_HOST)
        # The Arm baseline charges DPU-class cycles/byte (A72 cores).
        arm.host_cpu.cpu_class = "dpu"
        dpu_server = make_server(env, name="bf2",
                                 dpu_profile=BLUEFIELD2)

        epyc_path = HostComputeBaseline(epyc.host_cpu)
        arm_path = HostComputeBaseline(arm.host_cpu)
        asic = dpu_server.dpu.accelerator("compression")

        timings = {}

        def job(path, tag):
            started = env.now
            yield from path.run_kernel("compress", SynthBuffer(nbytes))
            timings[tag] = env.now - started

        def asic_job():
            started = env.now
            yield from asic.run_job(nbytes)
            timings["bf2_asic_s"] = env.now - started

        env.process(job(epyc_path, "epyc_s"))
        env.process(job(arm_path, "arm_s"))
        env.process(asic_job())
        env.run()
        sweep.add(size_mb, **timings)
    return sweep


def fig1_real_bytes_checkpoint() -> dict:
    """Figure 1 companion: run *real* DEFLATE on synthetic text.

    Validates that the functional path really compresses natural-text
    data at natural-text ratios (the simulated latencies above assume
    streaming compression regardless of content).
    """
    text = make_text(FIG1_REAL_BYTES)
    env = Environment()
    epyc = make_server(env, name="epyc")
    baseline = HostComputeBaseline(epyc.host_cpu)
    outcome = {}

    def job():
        from ..buffers import RealBuffer
        result = yield from baseline.run_kernel(
            "compress", RealBuffer(text)
        )
        outcome["ratio"] = FIG1_REAL_BYTES / result.buffer.size
        outcome["compressed_bytes"] = result.buffer.size

    env.process(job())
    env.run()
    return outcome


def fig2_storage_cpu(
    rates_kpages: Sequence[int] = (50, 150, 250, 350, 450),
    duration_s: float = 0.02,
) -> Sweep:
    """Figure 2: CPU consumption of storage access vs throughput.

    Series: ``kernel_cores`` and ``io_uring_cores`` (the paper's two
    lines — host cores), plus the DPDPU extension the paper motivates:
    ``dpdpu_host_cores`` / ``dpdpu_dpu_cores`` for the SE offloaded
    file path.
    """
    sweep = Sweep("kpages_per_s")
    for rate_kpages in rates_kpages:
        rate = rate_kpages * 1000.0
        values = {}

        # -- host software paths ------------------------------------
        for path_name, key in (("kernel", "kernel_cores"),
                               ("io_uring", "io_uring_cores"),
                               ("spdk_host", "spdk_host_cores")):
            env = Environment()
            server = make_server(env, name="host")
            path = HostStoragePath(server.host_cpu, server.ssd(0),
                                   server.costs.software, path_name)
            meter = CoreMeter(server.host_cpu)
            meter.start()

            def handler(i):
                yield from path.read_page(PAGE_SIZE)

            open_loop(env, rate, handler, duration_s)
            env.run(until=duration_s)
            values[key] = meter.cores()

        # -- the SE offloaded path ------------------------------------
        env = Environment()
        server = make_server(env, name="dpu", dpu_profile=BLUEFIELD2)
        runtime = DpdpuRuntime(server, se_ring_capacity=1 << 16)
        file_id = runtime.storage.create("sweep", size=512 * MiB)
        host_meter = CoreMeter(server.host_cpu)
        dpu_meter = CoreMeter(server.dpu.cpu)
        host_meter.start()
        dpu_meter.start()
        pages_in_file = (512 * MiB) // PAGE_SIZE

        def se_handler(i):
            offset = (i % pages_in_file) * PAGE_SIZE
            request = runtime.storage.read(file_id, offset, PAGE_SIZE)
            yield request.done

        open_loop(env, rate, se_handler, duration_s)
        env.run(until=duration_s)
        values["dpdpu_host_cores"] = host_meter.cores()
        values["dpdpu_dpu_cores"] = dpu_meter.cores()

        sweep.add(rate_kpages, **values)
    return sweep


def fig3_network_cpu(
    gbps_points: Sequence[int] = (10, 30, 50, 70, 90),
    duration_s: float = 0.01,
) -> Sweep:
    """Figure 3: CPU consumption of TCP at increasing bandwidth.

    Series: ``kernel_tx_cores`` / ``kernel_rx_cores`` (the paper's
    measurement: host cores running kernel TCP), plus the NE
    comparison: ``ne_host_cores`` (host side of the offloaded stack)
    and ``ne_dpu_cores`` (Arm cores running the protocol).
    """
    sweep = Sweep("gbps")
    for gbps in gbps_points:
        rate = gbps * Gbps / _WIRE_MSG_BITS
        values = {}

        values.update(_kernel_tcp_point(rate, duration_s))
        values.update(_ne_tcp_point(rate, duration_s))
        sweep.add(gbps, **values)
    return sweep


def _kernel_tcp_point(rate: float, duration_s: float) -> dict:
    env = Environment()
    sender = make_server(env, name="snd", dpu_profile=None)
    receiver = make_server(env, name="rcv", dpu_profile=None)
    connect(sender, receiver)
    tx_stack = make_kernel_tcp(sender, "tx")
    rx_stack = make_kernel_tcp(receiver, "rx")
    listener = rx_stack.listen(4000)
    connections = []

    def setup():
        for _ in range(_FIG3_CONNECTIONS):
            connection = yield from tx_stack.connect(4000)
            connections.append(connection)

    def drain():
        while True:
            server_conn = yield listener.accept()
            env.process(_sink(server_conn))

    def _sink(connection):
        while True:
            yield connection.recv_message()

    env.process(drain())
    env.run(until=env.process(setup()))

    tx_meter = CoreMeter(sender.host_cpu)
    rx_meter = CoreMeter(receiver.host_cpu)
    tx_meter.start()
    rx_meter.start()

    def handler(i):
        connection = connections[i % _FIG3_CONNECTIONS]
        yield from connection.send_message(SynthBuffer(PAGE_SIZE))

    start = env.now
    open_loop(env, rate, handler, duration_s)
    env.run(until=start + duration_s)
    return {
        "kernel_tx_cores": tx_meter.cores(),
        "kernel_rx_cores": rx_meter.cores(),
    }


def _ne_tcp_point(rate: float, duration_s: float) -> dict:
    env = Environment()
    sender = make_server(env, name="snd", dpu_profile=BLUEFIELD2)
    receiver = make_server(env, name="rcv", dpu_profile=BLUEFIELD2)
    connect(sender, receiver)
    tx_runtime = DpdpuRuntime(sender)
    rx_runtime = DpdpuRuntime(receiver)
    listener = rx_runtime.network.listen(4000)
    sockets = []

    def setup():
        for _ in range(_FIG3_CONNECTIONS):
            socket = yield tx_runtime.network.connect(4000).done
            sockets.append(socket)

    def drain():
        while True:
            socket = yield listener.accept().done
            env.process(_sink(socket))

    def _sink(socket):
        while True:
            yield socket.recv().done

    env.process(drain())
    env.run(until=env.process(setup()))

    host_meter = CoreMeter(sender.host_cpu)
    dpu_meter = CoreMeter(sender.dpu.cpu)
    host_meter.start()
    dpu_meter.start()

    def handler(i):
        socket = sockets[i % _FIG3_CONNECTIONS]
        yield socket.send(SynthBuffer(PAGE_SIZE)).done

    start = env.now
    open_loop(env, rate, handler, duration_s)
    env.run(until=start + duration_s)
    return {
        "ne_host_cores": host_meter.cores(),
        "ne_dpu_cores": dpu_meter.cores(),
    }


# -- structured runners for the CLI / artifact ------------------------------
#
# One function per experiment id, returning every part (Sweep or
# dict) the experiment produces, under stable part names.  The CLI
# renders these generically and ``--json-out`` serializes them into
# the schema-versioned run artifact (see ``repro.obs.artifact``);
# durations are the CLI's quick-run defaults.


def fig1_parts() -> dict:
    """F1: the compression sweep plus the real-bytes checkpoint."""
    return {
        "compression": fig1_compression(),
        "real_bytes_checkpoint": fig1_real_bytes_checkpoint(),
    }


def fig2_parts() -> dict:
    """F2: CPU consumption of storage access."""
    return {"storage_cpu": fig2_storage_cpu(duration_s=0.01)}


def fig3_parts() -> dict:
    """F3: CPU consumption of TCP."""
    return {"network_cpu": fig3_network_cpu(duration_s=0.005)}
