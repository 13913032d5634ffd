"""Ablations A1–A5: the design choices DESIGN.md calls out.

A1 — sproc scheduling disciplines (FCFS / DRR / hybrid).
A2 — DPU portability: the same sproc across all SKU profiles.
A3 — file-cache placement: host vs DPU vs split (Section 9).
A4 — fast persistence: DPU-journal ack vs regular durable write.
A5 — partial offloading under a replay-heavy request mix (Section 7).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..buffers import SynthBuffer
from ..core import ComputeEngine
from ..core.storage import StorageEngine
from ..hardware import (
    BLUEFIELD2,
    DPU_PROFILES,
    make_server,
)
from ..sim import Environment
from ..units import MiB, PAGE_SIZE
from .harness import Sweep
from .experiments_system import fig6_sproc

__all__ = [
    "ablation_scheduling",
    "ablation_portability",
    "ablation_caching",
    "ablation_persistence",
    "ablation_partial_offload",
    "ablation_fusion",
    "a1_parts",
    "a2_parts",
    "a3_parts",
    "a4_parts",
    "a5_parts",
    "a6_parts",
]


# ---------------------------------------------------------------- A1


#: A1's burst: short sprocs, and the elephants spread evenly among them
N_SHORT, N_LONG = 300, 30


def ablation_scheduling() -> Dict[str, Dict[str, float]]:
    """A1: p99 queueing delay of short sprocs under each policy.

    A *burst* workload (everything arrives at once, as a packet burst
    would): many short sprocs (~50 K cycles) interleaved with a
    minority of long ones (~5 M cycles) from a different tenant.
    FCFS head-of-line-blocks the short tasks behind the elephants;
    DRR/hybrid protect them.
    """
    results: Dict[str, Dict[str, float]] = {}
    for policy in ("fcfs", "drr", "hybrid"):
        env = Environment()
        server = make_server(env, dpu_profile=BLUEFIELD2)
        engine = ComputeEngine(server, policy=policy)
        engine.tenants.register("batch")

        def short_sproc(ctx, arg):
            yield from ctx.compute(50_000)

        def long_sproc(ctx, arg):
            yield from ctx.compute(5_000_000)

        engine.register_sproc("short", short_sproc,
                              estimated_cycles=50_000)
        engine.register_sproc("long", long_sproc,
                              estimated_cycles=5_000_000)

        long_every = (N_SHORT + N_LONG) // N_LONG
        requests = []
        longs_submitted = 0
        for i in range(N_SHORT + N_LONG):
            if i % long_every == 0 and longs_submitted < N_LONG:
                requests.append(engine.invoke("long", tenant="batch"))
                longs_submitted += 1
            else:
                requests.append(engine.invoke("short"))
        env.run(until=env.all_of([r.done for r in requests]))
        results[policy] = {
            "short_wait_p99_s": engine.scheduler.wait_time_short.p99,
            "short_wait_mean_s": engine.scheduler.wait_time_short.mean,
            "long_wait_p99_s": engine.scheduler.wait_time_long.p99,
            "makespan_s": env.now,
        }
    return results


# ---------------------------------------------------------------- A2


def ablation_portability() -> Dict[str, Dict[str, float]]:
    """A2: the unmodified Figure-6 sproc on every DPU profile."""
    results: Dict[str, Dict[str, float]] = {}
    for name in ("bluefield2", "bluefield3", "intel-ipu",
                 "generic-dpu"):
        profile = DPU_PROFILES[name]
        outcome = fig6_sproc(profile, "specified", n_invocations=10)
        outcome["has_compression_asic"] = float(
            profile.has_accelerator("compression")
        )
        results[name] = outcome
    return results


# ---------------------------------------------------------------- A3


#: A3's DPU shares of the cache budget, and requests per phase
DPU_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
N_CACHE_REQUESTS = 1500


def ablation_caching() -> Sweep:
    """A3: split one cache budget between host and DPU memory.

    The workload is half *local* reads (host application via the SE
    rings — host-cache friendly) and half *remote* reads (offloaded
    DPU path — DPU-cache friendly) over a hot set larger than either
    cache half, so placement genuinely matters.  The cache is warmed
    with an equal number of unrecorded requests first.
    """
    total_cache_bytes = 24 * MiB
    hot_pages = 4096                 # 32 MiB hot set > either half
    sweep = Sweep("dpu_share")
    for dpu_share in DPU_SHARES:
        env = Environment()
        server = make_server(env, dpu_profile=BLUEFIELD2)
        se = StorageEngine(
            server,
            dpu_cache_bytes=int(total_cache_bytes * dpu_share) or 1,
            host_cache_bytes=int(
                total_cache_bytes * (1 - dpu_share)
            ) or 1,
        )
        file_id = se.create("db", size=512 * MiB)
        import random
        rng = random.Random(71)
        local_latency = []
        remote_latency = []

        def one_request(i, record):
            page = rng.randrange(hot_pages)
            offset = page * PAGE_SIZE
            if i % 2 == 0:
                started = env.now
                request = se.read(file_id, offset, PAGE_SIZE)
                yield request.done
                if record:
                    local_latency.append(env.now - started)
            else:
                started = env.now
                yield from se.dpu_read(file_id, offset, PAGE_SIZE)
                if record:
                    remote_latency.append(env.now - started)

        def run_mixed():
            for i in range(N_CACHE_REQUESTS):      # warmup
                yield from one_request(i, record=False)
            for i in range(N_CACHE_REQUESTS):      # measured
                yield from one_request(i, record=True)

        env.run(until=env.process(run_mixed()))
        sweep.add(
            dpu_share,
            local_mean_s=sum(local_latency) / len(local_latency),
            remote_mean_s=sum(remote_latency) / len(remote_latency),
            combined_mean_s=(
                (sum(local_latency) + sum(remote_latency))
                / (len(local_latency) + len(remote_latency))
            ),
            dpu_hit_rate=(se.dpu_cache.hit_rate()
                          if se.dpu_cache else 0.0),
            host_hit_rate=(se.host_cache.hit_rate()
                           if se.host_cache else 0.0),
        )
    return sweep


# ---------------------------------------------------------------- A4


#: A4's writes per path
N_WRITES = 100


def ablation_persistence() -> Dict[str, float]:
    """A4: ack latency of regular vs fast-persistent writes."""
    env = Environment()
    server = make_server(env, dpu_profile=BLUEFIELD2)
    se = StorageEngine(server)
    file_id = se.create("log", size=64 * MiB)
    regular = []
    persistent = []

    def driver():
        for i in range(N_WRITES):
            request = se.write(file_id, (i % 4096) * PAGE_SIZE,
                               SynthBuffer(PAGE_SIZE))
            yield request.done
            regular.append(request.latency)
        for i in range(N_WRITES):
            request = se.write_persistent(
                file_id, (i % 4096) * PAGE_SIZE, SynthBuffer(PAGE_SIZE)
            )
            yield request.done
            persistent.append(request.latency)

    env.run(until=env.process(driver()))
    regular_mean = sum(regular) / len(regular)
    persistent_mean = sum(persistent) / len(persistent)
    return {
        "regular_write_mean_s": regular_mean,
        "persistent_ack_mean_s": persistent_mean,
        "speedup": regular_mean / persistent_mean,
    }


# ---------------------------------------------------------------- A6


def ablation_fusion() -> Sweep:
    """A6: DP-kernel fusion on a PCIe GPU (Section 5 extension).

    A decompress→filter scan pipeline over compressed pages, run three
    ways: fused on the GPU (one launch, intermediates stay on-device),
    unfused on the GPU (two launches + PCIe round trips for the
    intermediate), and unfused on DPU cores.
    """
    from ..hardware import GPU_SPEC
    from ..units import MB

    sweep = Sweep("size_mb")
    for size_mb in (1, 4, 16, 64):
        env = Environment()
        server = make_server(env, dpu_profile=BLUEFIELD2,
                             peer_specs=(GPU_SPEC,))
        engine = ComputeEngine(server)
        payload = SynthBuffer(size_mb * MB, label="pages.z")
        values = {}

        fused = engine.submit_fused(["decompress", "filter"], payload,
                                    "pcie_gpu")
        env.run(until=fused.done)
        values["fused_gpu_s"] = fused.latency

        step1 = engine.get_dpk("decompress")(payload, "pcie_gpu")
        env.run(until=step1.done)
        step2 = engine.get_dpk("filter")(step1.data, "pcie_gpu")
        env.run(until=step2.done)
        values["unfused_gpu_s"] = step1.latency + step2.latency

        step1 = engine.get_dpk("decompress")(payload, "dpu_cpu")
        env.run(until=step1.done)
        step2 = engine.get_dpk("filter")(step1.data, "dpu_cpu")
        env.run(until=step2.done)
        values["dpu_cpu_s"] = step1.latency + step2.latency

        sweep.add(size_mb, **values)
    return sweep


# ---------------------------------------------------------------- A5


def ablation_partial_offload(
    read_fractions: Sequence[float] = (1.0, 0.9, 0.7, 0.5),
    rate_kreq: int = 200,
    duration_s: float = 0.01,
) -> Sweep:
    """A5: DDS under a growing share of non-offloadable requests.

    As the log-replay share rises, the offload fraction falls, host
    cores climb, and the DPU's share of the work shrinks — the
    quantitative version of Section 7's partial-offloading argument.
    """
    from .experiments_system import _s9_point

    sweep = Sweep("read_fraction")
    for read_fraction in read_fractions:
        dds = _s9_point(rate_kreq * 1000.0, duration_s, "pageserver",
                        read_fraction, 8, use_dds=True)
        baseline = _s9_point(rate_kreq * 1000.0, duration_s,
                             "pageserver", read_fraction, 8,
                             use_dds=False)
        sweep.add(
            read_fraction,
            offload_fraction=dds["offload_fraction"],
            dds_host_cores=dds["host_cores"],
            dds_dpu_cores=dds["dpu_cores"],
            baseline_host_cores=baseline["host_cores"],
            cores_saved=baseline["host_cores"] - dds["host_cores"],
        )
    return sweep


# -- structured runners for the CLI / artifact ------------------------------


def a1_parts() -> Dict[str, Dict[str, Dict[str, float]]]:
    """A1: scheduling disciplines."""
    return {"scheduling": ablation_scheduling()}


def a2_parts() -> Dict[str, Dict[str, Dict[str, float]]]:
    """A2: DPU portability."""
    return {"portability": ablation_portability()}


def a3_parts() -> Dict[str, Sweep]:
    """A3: cache placement."""
    return {"caching": ablation_caching()}


def a4_parts() -> Dict[str, Dict[str, float]]:
    """A4: fast persistence."""
    return {"persistence": ablation_persistence()}


def a5_parts() -> Dict[str, Sweep]:
    """A5: partial offloading."""
    return {"partial_offload": ablation_partial_offload(
        duration_s=0.008)}


def a6_parts() -> Dict[str, Sweep]:
    """A6: kernel fusion on PCIe peers."""
    return {"fusion": ablation_fusion()}
