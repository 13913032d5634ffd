"""Experiments F1–F3: the paper's Section 2 micro-benchmarks.

Each point builds a fresh simulation and drives the workload the
figure describes.  Figure 1 runs as two rows, its sweep and its
real-bytes checkpoint; every point of Figures 2 and 3 is a row of its
own (:data:`FIG2_ROWS`, :data:`FIG3_ROWS`), and the figure's
:class:`~repro.bench.harness.Sweep`, whose series are its lines, is
assembled from the row results.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

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
    "FIG2_ROWS",
    "FIG3_ROWS",
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


def _host_storage_point(rate: float, duration_s: float,
                        path: str) -> Dict[str, float]:
    """Figure 2's paper lines: host cores reading pages open-loop
    through one host software path (``kernel``, ``io_uring`` or
    ``spdk_host``)."""
    env = Environment()
    server = make_server(env, name="host")
    storage = HostStoragePath(server.host_cpu, server.ssd(0),
                              server.costs.software, path)
    meter = CoreMeter(server.host_cpu)
    meter.start()

    def handler(i):
        yield from storage.read_page(PAGE_SIZE)

    open_loop(env, rate, handler, duration_s)
    env.run(until=duration_s)
    return {f"{path}_cores": meter.cores()}


def _se_storage_point(rate: float, duration_s: float) -> Dict[str, float]:
    """The DPDPU extension Figure 2 motivates: host and DPU cores of
    the SE's offloaded file path at the same page rate."""
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
    return {"dpdpu_host_cores": host_meter.cores(),
            "dpdpu_dpu_cores": dpu_meter.cores()}


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


# -- rows and assemblies ---------------------------------------------------


def _merged(x_label: str, results: Dict[str, Dict[str, float]]) -> Sweep:
    """One sweep point per ``x``, from rows named ``{series}.{x}``:
    each point holds every row's values at its ``x``, in row order."""
    points: Dict[int, Dict[str, float]] = {}
    for name, values in results.items():
        points.setdefault(int(name.partition(".")[2]), {}).update(values)
    sweep = Sweep(x_label)
    for x, values in points.items():
        sweep.add(x, **values)
    return sweep


#: Figure 2's rows: the paper's two lines (host cores through the
#: ``kernel`` and ``io_uring`` paths), ``spdk_host``, and the DPDPU
#: extension the paper motivates (host and DPU cores of the SE's
#: offloaded file path), at every page rate
FIG2_ROWS = {
    f"{path}.{rate_kpages}": (
        partial(_se_storage_point, rate=rate_kpages * 1000.0,
                duration_s=0.01) if path == "dpdpu" else
        partial(_host_storage_point, rate=rate_kpages * 1000.0,
                duration_s=0.01, path=path))
    for rate_kpages in (50, 150, 250, 350, 450)
    for path in ("kernel", "io_uring", "spdk_host", "dpdpu")
}

#: Figure 3's rows: host cores running kernel TCP (the paper's
#: measurement), and the host and Arm cores of the NE's offloaded
#: stack, at every bandwidth
FIG3_ROWS = {
    f"{stack}.{gbps}": partial(point, rate=gbps * Gbps / _WIRE_MSG_BITS,
                               duration_s=0.005)
    for gbps in (10, 30, 50, 70, 90)
    for stack, point in (("kernel", _kernel_tcp_point),
                         ("ne", _ne_tcp_point))
}


def fig2_parts(results: Dict[str, Dict[str, float]]) -> Dict[str, Sweep]:
    """F2: CPU consumption of storage access vs throughput."""
    return {"storage_cpu": _merged("kpages_per_s", results)}


def fig3_parts(results: Dict[str, Dict[str, float]]) -> Dict[str, Sweep]:
    """F3: CPU consumption of TCP at increasing bandwidth."""
    return {"network_cpu": _merged("gbps", results)}
