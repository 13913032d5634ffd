"""The paper's quantitative claims, as data.

Each :class:`Claim` encodes one checkable statement from the DPDPU
paper (F1–F3, F6–F8, S9), from the ablations DESIGN.md derives from
its sections 5–9 (A1–A6), or about one of the system experiments
(AV, SC, OB, AT, SL, Q) against the benchmark artifact format of
:mod:`repro.obs.artifact`: which experiment and part it reads, the
check kind, and its parameters.  ``python -m repro.bench --check
ARTIFACT.json`` evaluates the whole registry and reports
PASS / FAIL / SKIP per claim with measured-vs-expected values.  This
table is the reproduction's shape contract — the only place a
simulated number is asserted — and every ``repro.bench`` experiment
is bound by at least one row of it.

A claim SKIPs when its experiment is absent from the artifact (a
subset run); a present experiment with a missing part or series is a
FAIL — that is schema drift, not a smaller run.

Check kinds (all selectors name ``part`` plus kind-specific fields):

``monotonic``     sweep series never drops by more than ``tolerance``
``linear``        least-squares fit of a sweep series has R² ≥ floor
``dominates``     winner ≥ ``min_factor`` × loser at every sweep row
``ratio_at``      numerator / denominator ≥ ``min_factor`` at one row
``band``          a metric (table / nested / sweep-at-row) in [lo, hi];
                  a nested ``config`` of ``"*"`` or a list bands each
``order``         metric ``smaller`` < metric ``larger`` (F8 ordering);
                  ``smaller_row`` / ``larger_row`` compare across rows
``rel_close``     two sweep series within rel_tol + abs_tol, row-wise
``nested_ratio``  metric ratio between two nested configs ≥ factor;
                  ``"*"`` on either side means every other config
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..sim.stats import fold_sum

__all__ = [
    "Claim",
    "ClaimResult",
    "CLAIMS",
    "evaluate_claim",
    "evaluate_all",
    "render_claim_report",
]

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass(frozen=True)
class Claim:
    """One declarative paper claim."""

    id: str                      # e.g. "F1.asic_order_of_magnitude"
    experiment: str              # artifact experiment key ("fig1")
    description: str             # the paper's statement, abbreviated
    kind: str                    # check kind (module docstring)
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class ClaimResult:
    """The verdict for one claim against one artifact."""

    claim: Claim
    status: str                  # PASS / FAIL / SKIP
    measured: str = ""
    expected: str = ""
    detail: str = ""


# -- the registry -----------------------------------------------------------

def _c(id, experiment, description, kind, **params) -> Claim:
    return Claim(id, experiment, description, kind, params)


CLAIMS: Tuple[Claim, ...] = (
    # F1 — compression on different hardware
    _c("F1.latency_grows", "fig1",
       "DEFLATE latency grows with data size on every device",
       "monotonic", part="compression",
       series=["epyc_s", "arm_s", "bf2_asic_s"]),
    _c("F1.epyc_beats_arm", "fig1",
       "the more advanced EPYC CPU outperforms the Arm CPU",
       "dominates", part="compression",
       winner="arm_s", loser="epyc_s", min_factor=1.5),
    _c("F1.asic_order_of_magnitude", "fig1",
       "BF-2 compression ASIC ~10x faster than a CPU core",
       "ratio_at", part="compression",
       numerator="epyc_s", denominator="bf2_asic_s",
       row="last", min_factor=8.0),
    _c("F1.natural_text_ratio", "fig1",
       "real DEFLATE compresses natural text at a natural ratio",
       "band", part="real_bytes_checkpoint",
       metric="ratio", lo=2.0, hi=6.0),
    _c("F1.asic_beats_arm", "fig1",
       "the ASIC's margin over the DPU's own Arm cores is wider still",
       "ratio_at", part="compression",
       numerator="arm_s", denominator="bf2_asic_s",
       row="last", min_factor=25.0),

    # F2 — CPU consumption of storage access
    _c("F2.linear_with_rate", "fig2",
       "host CPU grows linearly with 8 KiB-page read throughput",
       "linear", part="storage_cpu", series="kernel_cores",
       r2_floor=0.98),
    _c("F2.cores_at_450k", "fig2",
       "~2.7 host cores at 450K pages/s on the kernel path",
       "band", part="storage_cpu", series="kernel_cores",
       row=450, lo=2.4, hi=3.0),
    _c("F2.io_uring_similar", "fig2",
       "io_uring consumes a similar number of cores",
       "rel_close", part="storage_cpu",
       a="io_uring_cores", b="kernel_cores",
       rel_tol=0.25, abs_tol=0.05),
    _c("F2.se_frees_host", "fig2",
       "the offloaded SE path serves the load with >10x fewer "
       "host cores",
       "ratio_at", part="storage_cpu",
       numerator="kernel_cores", denominator="dpdpu_host_cores",
       row="last", min_factor=10.0),
    _c("F2.cores_grow_with_rate", "fig2",
       "kernel-path host cores never drop as the page rate rises",
       "monotonic", part="storage_cpu", series="kernel_cores"),

    # F3 — CPU consumption of TCP
    _c("F3.linear_with_bandwidth", "fig3",
       "kernel TCP host cost grows linearly with offered bandwidth",
       "linear", part="network_cpu", series="kernel_tx_cores",
       r2_floor=0.98),
    _c("F3.multicore_at_high_bw", "fig3",
       "multiple host cores burned near 100 Gbps with 8 KiB messages",
       "band", part="network_cpu", series="kernel_tx_cores",
       row="last", lo=4.0, hi=math.inf),
    _c("F3.ne_frees_host", "fig3",
       "NE offload leaves only ring work on the host (>5x fewer "
       "cores at every point)",
       "dominates", part="network_cpu",
       winner="kernel_tx_cores", loser="ne_host_cores",
       min_factor=5.0),
    _c("F3.cores_grow_with_bandwidth", "fig3",
       "kernel TCP host cores never drop as bandwidth rises",
       "monotonic", part="network_cpu", series="kernel_tx_cores"),
    _c("F3.receive_side_multicore", "fig3",
       "the receiving host burns multiple cores too",
       "band", part="network_cpu", series="kernel_rx_cores",
       row="last", lo=4.0, hi=math.inf),
    _c("F3.protocol_work_on_dpu", "fig3",
       "with NE the protocol work moved to the DPU: its Arm cores "
       "are busy at high bandwidth",
       "band", part="network_cpu", series="ne_dpu_cores",
       row="last", lo=2.0, hi=math.inf),

    # F6 — the read-compress-send sproc
    _c("F6.all_pages_delivered", "fig6",
       "every configuration delivers every page to the client",
       "band", part="sproc", config="*",
       metric="pages_received", lo=160.0, hi=160.0),
    _c("F6.specified_runs_on_asic", "fig6",
       "specified execution runs every compression on the BF-2 ASIC",
       "band", part="sproc", config="bf2/specified",
       metric="asic_fraction", lo=1.0, hi=1.0),
    _c("F6.fallback_on_generic", "fig6",
       "without the ASIC the sproc falls back to DPU CPUs",
       "band", part="sproc", config="generic/fallback",
       metric="asic_fraction", lo=0.0, hi=0.0),
    _c("F6.asic_speedup", "fig6",
       "ASIC acceleration wins end to end by a wide margin",
       "nested_ratio", part="sproc", metric="pages_per_s",
       numerator_config="bf2/specified",
       denominator_config="generic/fallback", min_factor=4.0),
    _c("F6.scheduled_competitive", "fig6",
       "scheduled execution is at least as fast as pinning to the "
       "ASIC under a setup-dominated burst",
       "nested_ratio", part="sproc", metric="pages_per_s",
       numerator_config="bf2/scheduled",
       denominator_config="bf2/specified", min_factor=0.95),
    _c("F6.output_compressed", "fig6",
       "what reaches the client is smaller than the 160 raw pages",
       "band", part="sproc", config="*",
       metric="bytes_received", lo=0.0, hi=160 * 8192.0),

    # F7 — DPU-optimized RDMA
    _c("F7.host_cycles_saved", "fig7",
       "NE offload cuts host cycles per RDMA op by >3x",
       "band", part="rdma", metric="host_cycles_saved_factor",
       lo=3.0, hi=math.inf),
    _c("F7.throughput_sustained", "fig7",
       "the offloaded path still sustains high op throughput",
       "band", part="rdma", metric="offloaded_ops_per_s",
       lo=500_000.0, hi=math.inf),
    _c("F7.dpu_hop_costs_latency", "fig7",
       "the DPU hop adds latency (the honest trade)",
       "order", part="rdma",
       smaller="native_latency_s", larger="offloaded_latency_s"),

    # F8 — DDS remote-read latency
    _c("F8.latency_ordering", "fig8",
       "DDS mean remote-read latency beats the host-served path",
       "order", part="dds_latency",
       smaller="dds_mean_s", larger="host_path_mean_s"),
    _c("F8.p99_ordering", "fig8",
       "the ordering holds at the tail too",
       "order", part="dds_latency",
       smaller="dds_p99_s", larger="host_path_p99_s"),
    _c("F8.double_digit_saving", "fig8",
       "a double-digit-percent latency saving",
       "band", part="dds_latency", metric="latency_saving_fraction",
       lo=0.10, hi=1.0),

    # S9 — DDS cores saved
    _c("S9.baseline_climbs", "s9",
       "baseline host cost climbs with request rate",
       "monotonic", part="pageserver",
       series="baseline_host_cores"),
    _c("S9.dds_host_stays_low", "s9",
       "DDS keeps host cores at a fraction of the baseline",
       "dominates", part="pageserver",
       winner="baseline_host_cores", loser="dds_host_cores",
       min_factor=2.0),
    _c("S9.savings_grow", "s9",
       "core savings grow with rate",
       "monotonic", part="pageserver", series="cores_saved"),
    _c("S9.tens_of_cores_at_line_rate", "s9",
       "DDS saves 10s of CPU cores per storage server at line rate",
       "band", part="pageserver",
       series="cores_saved_at_line_rate", row="last",
       lo=10.0, hi=math.inf),
    _c("S9.cheaper_at_line_rate", "s9",
       "the DDS server is cheaper than the conventional server at "
       "line rate",
       "order", part="pageserver", row="last",
       smaller="line_rate_dds_dollars_hr",
       larger="line_rate_baseline_dollars_hr"),
    _c("S9.kv_baseline_climbs", "s9",
       "the same under a FASTER-like KV mix (YCSB-B): baseline host "
       "cost climbs with request rate",
       "monotonic", part="kv", series="baseline_host_cores"),
    _c("S9.kv_dds_host_stays_low", "s9",
       "KV mix: DDS keeps host cores at a fraction of the baseline",
       "dominates", part="kv",
       winner="baseline_host_cores", loser="dds_host_cores",
       min_factor=2.0),
    _c("S9.kv_savings_grow", "s9",
       "KV mix: core savings grow with rate",
       "monotonic", part="kv", series="cores_saved"),
    _c("S9.kv_tens_of_cores_at_line_rate", "s9",
       "KV mix: 10s of CPU cores saved per storage server at line "
       "rate",
       "band", part="kv",
       series="cores_saved_at_line_rate", row="last",
       lo=10.0, hi=math.inf),
    _c("S9.kv_cheaper_at_line_rate", "s9",
       "KV mix: the DDS server is the cheaper one at line rate",
       "order", part="kv", row="last",
       smaller="line_rate_dds_dollars_hr",
       larger="line_rate_baseline_dollars_hr"),

    # A1 — sproc scheduling disciplines (Section 5)
    _c("A1.fair_policies_protect_short_tail", "a1",
       "DRR and the iPipe-style hybrid cut short-sproc p99 wait by "
       ">=3x vs FCFS head-of-line blocking",
       "nested_ratio", part="scheduling", metric="short_wait_p99_s",
       numerator_config="fcfs", denominator_config="*",
       min_factor=3.0),
    _c("A1.fairness_keeps_throughput", "a1",
       "fairness does not cost throughput: every policy's makespan "
       "is within 15% of every other's",
       "nested_ratio", part="scheduling", metric="makespan_s",
       numerator_config="*", denominator_config="*",
       min_factor=0.87),

    # A2 — DPU heterogeneity (Section 5 / Challenge 3)
    _c("A2.every_sku_delivers", "a2",
       "the unmodified Figure-6 sproc delivers every page on every "
       "DPU profile",
       "band", part="portability", config="*",
       metric="pages_received", lo=80.0, hi=80.0),
    _c("A2.bluefield2_uses_asic", "a2",
       "placement follows hardware: BlueField-2 compresses on its ASIC",
       "band", part="portability", config="bluefield2",
       metric="asic_fraction", lo=1.0, hi=1.0),
    _c("A2.bluefield3_uses_asic", "a2",
       "placement follows hardware: BlueField-3 compresses on its ASIC",
       "band", part="portability", config="bluefield3",
       metric="asic_fraction", lo=1.0, hi=1.0),
    _c("A2.intel_ipu_uses_asic", "a2",
       "placement follows hardware: the Intel IPU compresses on its "
       "ASIC",
       "band", part="portability", config="intel-ipu",
       metric="asic_fraction", lo=1.0, hi=1.0),
    _c("A2.generic_falls_back", "a2",
       "placement follows hardware: the ASIC-less SKU runs every "
       "compression on Arm cores",
       "band", part="portability", config="generic-dpu",
       metric="asic_fraction", lo=0.0, hi=0.0),
    _c("A2.asic_skus_beat_generic", "a2",
       "every ASIC-equipped SKU beats the CPU-only SKU by >3x",
       "nested_ratio", part="portability", metric="pages_per_s",
       numerator_config="*", denominator_config="generic-dpu",
       min_factor=3.0),

    # A3 — cache placement (Section 9 next steps)
    _c("A3.dpu_cache_helps_remote", "a3",
       "offloaded remote requests are faster with the whole budget "
       "in DPU memory than with all of it in host memory",
       "order", part="caching", smaller="remote_mean_s",
       larger="remote_mean_s", smaller_row="last", larger_row="first"),
    _c("A3.interior_split_beats_all_host", "a3",
       "placement matters: a 3:1 DPU:host split beats an all-host "
       "cache on combined latency",
       "order", part="caching", smaller="combined_mean_s",
       larger="combined_mean_s", smaller_row=0.75, larger_row="first"),
    _c("A3.interior_split_beats_all_dpu", "a3",
       "and it beats an all-DPU cache too",
       "order", part="caching", smaller="combined_mean_s",
       larger="combined_mean_s", smaller_row=0.75, larger_row="last"),
    _c("A3.dpu_hits_follow_budget", "a3",
       "the DPU cache's hit rate moves with its share of the budget",
       "order", part="caching", smaller="dpu_hit_rate",
       larger="dpu_hit_rate", smaller_row="first", larger_row="last"),
    _c("A3.host_hits_follow_budget", "a3",
       "the host cache's hit rate moves with its share of the budget",
       "order", part="caching", smaller="host_hit_rate",
       larger="host_hit_rate", smaller_row="last", larger_row="first"),

    # A4 — fast persistence (Section 9 next steps)
    _c("A4.fast_persistence_acks_sooner", "a4",
       "persisting to the DPU journal acknowledges a write ~2x sooner "
       "than a regular durable write",
       "band", part="persistence", metric="speedup",
       lo=1.8, hi=math.inf),

    # A5 — partial offloading (Section 7)
    _c("A5.offload_tracks_mix[1.0]", "a5",
       "the measured offload fraction tracks the offloadable share "
       "of the mix (all reads)",
       "band", part="partial_offload", series="offload_fraction",
       row=1.0, lo=0.92, hi=1.08),
    _c("A5.offload_tracks_mix[0.9]", "a5",
       "offload fraction tracks the mix at 90% reads",
       "band", part="partial_offload", series="offload_fraction",
       row=0.9, lo=0.82, hi=0.98),
    _c("A5.offload_tracks_mix[0.7]", "a5",
       "offload fraction tracks the mix at 70% reads",
       "band", part="partial_offload", series="offload_fraction",
       row=0.7, lo=0.62, hi=0.78),
    _c("A5.offload_tracks_mix[0.5]", "a5",
       "offload fraction tracks the mix at 50% reads",
       "band", part="partial_offload", series="offload_fraction",
       row=0.5, lo=0.42, hi=0.58),
    _c("A5.host_cores_rise_with_forwarding", "a5",
       "host cores rise as more of the mix must be forwarded",
       "monotonic", part="partial_offload", series="dds_host_cores",
       tolerance=0.0),
    _c("A5.host_idle_when_all_offloadable", "a5",
       "an all-offloadable mix leaves the host idle",
       "band", part="partial_offload", series="dds_host_cores",
       row="first", lo=0.0, hi=0.1),
    _c("A5.host_busy_at_half_offloadable", "a5",
       "at 50% reads the host does >5x the work of the "
       "all-offloadable mix, whatever that mix passed with",
       "band", part="partial_offload", series="dds_host_cores",
       row="last", lo=0.5, hi=math.inf),
    _c("A5.dds_beats_baseline_at_every_mix", "a5",
       "partial offloading still beats the host-served baseline at "
       "every mix",
       "dominates", part="partial_offload",
       winner="baseline_host_cores", loser="dds_host_cores",
       min_factor=1.3),

    # A6 — DP-kernel fusion on PCIe peers (Section 5)
    _c("A6.fusion_beats_two_launches", "a6",
       "a fused decompress->filter beats two GPU launches at every "
       "size (saved launch + saved PCIe crossings)",
       "dominates", part="fusion",
       winner="unfused_gpu_s", loser="fused_gpu_s", min_factor=2.0),
    _c("A6.gpu_beats_dpu_cores", "a6",
       "even unfused, the GPU crushes DPU cores for the scan pipeline",
       "dominates", part="fusion",
       winner="dpu_cpu_s", loser="unfused_gpu_s", min_factor=10.0),
    _c("A6.fused_latency_grows", "a6",
       "fused latency grows with input size",
       "monotonic", part="fusion", series="fused_gpu_s"),

    # AV — availability under injected faults (robustness layer)
    _c("AV.recovery_restores_goodput", "avail",
       "retries + breaker failover restore >= 90% of fault-free "
       "goodput under the default fault plan",
       "band", part="summary", metric="recovery_goodput_fraction",
       lo=0.90, hi=1.02),
    _c("AV.unprotected_load_degrades", "avail",
       "without recovery the same fault plan visibly degrades goodput",
       "order", part="summary",
       smaller="norec_goodput_fraction",
       larger="recovery_goodput_fraction"),
    _c("AV.unprotected_errors_visible", "avail",
       "unprotected requests fail at a material rate (every fault "
       "is a typed, surfaced error — not a silent wrong result)",
       "band", part="summary", metric="norec_error_rate",
       lo=0.05, hi=1.0),
    _c("AV.recovery_errors_bounded", "avail",
       "the recovery stack keeps the client-visible error rate tiny",
       "band", part="summary", metric="recovery_error_rate",
       lo=0.0, hi=0.02),
    _c("AV.failover_engaged", "avail",
       "the circuit breaker actually fails DPU-path reads over to "
       "the host while the Arm cores are down",
       "band", part="scenarios", config="faults_recovery",
       metric="failovers", lo=1.0, hi=math.inf),
    _c("AV.blackhole_connect_bounded", "avail",
       "a connect() into a black-holed link gives up at its deadline "
       "instead of backing off forever",
       "band", part="tcp_blackhole", metric="blackhole_elapsed_s",
       lo=0.0, hi=5.5e-3),

    # SC — multi-node scale-out (cluster layer)
    _c("SC.goodput_scales", "scale",
       "weak-scaling goodput never regresses as nodes are added",
       "monotonic", part="goodput", series="goodput_ops_per_s"),
    _c("SC.near_linear_speedup", "scale",
       "8 nodes serve close to 8x one node's goodput (sharding and "
       "DPU-side routing do not serialize the cluster)",
       "band", part="goodput", series="speedup", row="last",
       lo=6.0, hi=8.8),
    _c("SC.host_cores_stay_flat", "scale",
       "per-node host cores stay near zero at every cluster size — "
       "the DDS offload survives the move to a sharded cluster",
       "band", part="goodput", series="host_cores_per_node",
       row="last", lo=0.0, hi=0.5),
    _c("SC.routing_stays_bounded", "scale",
       "the DPU routes a bounded fraction of requests (stale "
       "clients exist, but routing never dominates)",
       "band", part="goodput", series="routed_fraction", row="last",
       lo=0.03, hi=0.25),
    _c("SC.tco_dpu_wins_at_scale", "scale",
       "an N-node DDS cluster is cheaper than an N-node host-served "
       "cluster at every N (Fig. 9 extended to the fleet)",
       "dominates", part="tco", winner="baseline_cluster_dollars_hr",
       loser="dds_cluster_dollars_hr", min_factor=1.3),
    _c("SC.placement_balanced", "scale",
       "consistent hashing keeps the most-loaded node within a "
       "small factor of the mean shard count",
       "band", part="sharding", metric="balance_factor",
       lo=1.0, hi=3.0),
    _c("SC.minimal_movement", "scale",
       "losing one of eight nodes moves only about 1/8 of the "
       "shards, and nothing else changes owner",
       "band", part="sharding", metric="moved_fraction",
       lo=0.03, hi=0.30),
    _c("SC.placement_deterministic", "scale",
       "shard placement is process-stable (crc32, no salted hash): "
       "a rebuilt map agrees shard for shard",
       "band", part="sharding", metric="deterministic",
       lo=1.0, hi=1.0),
    _c("SC.rebalance_restores_goodput", "scale",
       "migrating shards off the crashed DPU recovers most of the "
       "lost goodput vs leaving the cluster alone",
       "nested_ratio", part="rebalance", metric="ok_fraction",
       numerator_config="rebalance",
       denominator_config="norebalance", min_factor=1.2),
    _c("SC.rebalance_drains_node", "scale",
       "the rebalancer migrates every shard off the failed node "
       "within the run and retires it",
       "band", part="rebalance", config="rebalance",
       metric="node1_retired", lo=1.0, hi=1.0),
    _c("SC.rack_goodput_linear", "scale",
       "per-node goodput at 64 and 128 nodes stays within 10% of "
       "the 8-node point — weak scaling holds at rack scale",
       "band", part="rack", config="scaling",
       metric="goodput_linearity", lo=0.9, hi=1.0),
    _c("SC.rack_dpu_cores_flat", "scale",
       "per-node DPU cores are flat across the rack sweep (serving "
       "cost scales with nodes, not superlinearly)",
       "band", part="rack", config="scaling",
       metric="dpu_cores_flat_ratio", lo=1.0, hi=1.25),
    _c("SC.rack_host_cores_zero", "scale",
       "host cores stay ~zero at every rack size: DDS keeps serving "
       "DPU-side even at 128 nodes",
       "band", part="rack", config="scaling",
       metric="host_cores_per_node_max", lo=0.0, hi=0.05),
    _c("SC.rack_dpu_cores_accounted", "scale",
       "each rack node's DPU spends its two dedicated pollers (NE, "
       "SE) plus a fraction of a core serving — every core-second "
       "counted once",
       "band", part="rack", config=["8", "64", "128"],
       metric="dpu_cores_per_node", lo=2.0, hi=2.6),

    # OB — distributed tracing, telemetry plane, SLO flight recorder
    _c("OB.forwarded_requests_traced", "obs",
       "DPU-to-DPU forwarded requests leave routing hop spans",
       "band", part="trace", metric="forwarded_hops",
       lo=1.0, hi=math.inf),
    _c("OB.failover_requests_traced", "obs",
       "failed-over DPU->host requests leave degraded-path spans",
       "band", part="trace", metric="failover_spans",
       lo=1.0, hi=math.inf),
    _c("OB.migrations_traced", "obs",
       "shard migration pulls/exports carry trace context too",
       "band", part="trace", metric="migration_spans",
       lo=1.0, hi=math.inf),
    _c("OB.traces_connect_across_nodes", "obs",
       "every request that crossed a node boundary renders as one "
       "connected tree in the merged cluster trace",
       "band", part="trace", metric="adopted_connected_fraction",
       lo=1.0, hi=1.0),
    _c("OB.no_dangling_parents", "obs",
       "no span in the merged cluster trace references a parent "
       "that is not in the trace",
       "band", part="trace", metric="dangling_parents",
       lo=0.0, hi=0.0),
    _c("OB.spans_close", "obs",
       "dropped and faulted requests still close their spans — only "
       "requests wedged in the crashed node's stack stay open",
       "band", part="trace", metric="spans_open", lo=0.0, hi=50.0),
    _c("OB.plane_sees_collapse", "obs",
       "the telemetry plane's derived goodput series shows node1 "
       "collapsing after the DPU crash",
       "order", part="plane",
       smaller="node1_goodput_post_fault",
       larger="node1_goodput_pre_fault"),
    _c("OB.breaker_state_exported", "obs",
       "the breaker opening is visible in the derived "
       "breaker_state series",
       "band", part="plane", metric="breaker_opened",
       lo=1.0, hi=1.0),
    _c("OB.slo_detects_fault", "obs",
       "the SLO monitor fires within a few scrape windows of the "
       "injected fault",
       "band", part="slo", metric="detection_latency_s",
       lo=0.0, hi=4e-3),
    _c("OB.incident_bundle_dumped", "obs",
       "the flight recorder dumps an SLO-breach incident bundle "
       "with spans from every node",
       "band", part="slo", metric="slo_breach_recorded",
       lo=1.0, hi=1.0),
    _c("OB.span_volume_bounded", "obs",
       "tracing costs a bounded number of spans per request",
       "band", part="run", metric="spans_per_request",
       lo=1.0, hi=12.0),

    # AT — latency attribution, conservation, offload advisor
    _c("AT.latency_conserved", "attr",
       "every request's attributed per-resource segments sum to its "
       "measured end-to-end latency within float tolerance",
       "band", part="conservation", metric="max_abs_error_s",
       lo=0.0, hi=1e-9),
    _c("AT.all_requests_conserved", "attr",
       "the conservation invariant holds for every attributed "
       "request, not just most",
       "band", part="conservation", metric="conserved_fraction",
       lo=1.0, hi=1.0),
    _c("AT.forwarded_requests_attributed", "attr",
       "requests forwarded DPU-to-DPU across nodes still decompose "
       "into a conserved ledger (remote subtrees included)",
       "band", part="conservation", metric="forwarded_requests",
       lo=1.0, hi=math.inf),
    _c("AT.failover_requests_attributed", "attr",
       "requests that failed over to the host path after the DPU "
       "crash are attributed too",
       "band", part="conservation", metric="failover_requests",
       lo=1.0, hi=math.inf),
    _c("AT.advisor_matches_best_static", "attr",
       "the offload advisor's recommendation equals the best "
       "placement measured through the CE's specified execution, "
       "for every priced kernel/size",
       "band", part="advisor", config="*", metric="matches",
       lo=1.0, hi=1.0),
    _c("AT.advisor_quantifies_offload", "attr",
       "fed observed spans, the advisor prices moving a host-placed "
       "compress to the ASIC and quantifies the freed host cycles",
       "band", part="online", config="compress@host_cpu",
       metric="host_cycles_saved_per_call", lo=1.0, hi=math.inf),
    _c("AT.incidents_carry_attribution", "attr",
       "flight-recorder incident bundles embed the breach window's "
       "attribution summary",
       "band", part="conservation",
       metric="incidents_with_attribution", lo=1.0, hi=math.inf),

    # SL — overload-safe self-healing vs the chaos matrix
    _c("SL.flash_goodput_held", "slo",
       "with admission + autoscaling, on-time goodput through the "
       "flash crowd's back half stays >=90% of steady state",
       "band", part="flash", metric="protected_surge_ratio",
       lo=0.9, hi=math.inf),
    _c("SL.flash_unprotected_collapses", "slo",
       "the same surge with protection off collapses to <=60% of "
       "steady-state on-time goodput (queueing collapse)",
       "band", part="flash", metric="unprotected_surge_ratio",
       lo=0.0, hi=0.6),
    _c("SL.violation_seconds_5x", "slo",
       "summed across the chaos matrix, protection cuts "
       "SLO-violation-seconds by >=5x",
       "band", part="summary", metric="violation_seconds_ratio",
       lo=5.0, hi=math.inf),
    _c("SL.autoscaler_reacts", "slo",
       "the reject-rate trigger provisions new nodes during the "
       "flash crowd",
       "band", part="autoscale", metric="scaled_up",
       lo=1.0, hi=1.0),
    _c("SL.autoscaler_converges", "slo",
       "the node count settles (no flapping) within the scenario "
       "window",
       "band", part="autoscale", metric="converged",
       lo=1.0, hi=1.0),
    _c("SL.failover_heals", "slo",
       "capacity reconciliation beats ride-it-out on on-time "
       "requests through a regional DPU failure",
       "band", part="matrix", config="regional_failover",
       metric="goodput_ratio", lo=1.05, hi=math.inf),
    _c("SL.upgrade_zero_late", "slo",
       "make-before-break rolling upgrade finishes with zero late "
       "responses; break-before-make leaves thousands",
       "band", part="matrix", config="rolling_upgrade",
       metric="protected_late", lo=0.0, hi=0.0),
    _c("SL.noisy_budget_enforced", "slo",
       "the batch tenant's flood is refused at the door only when "
       "its token-bucket budget is armed",
       "order", part="matrix", config="noisy_neighbor",
       smaller="unprotected_errors", larger="protected_errors"),
    _c("SL.noisy_pro_isolated", "slo",
       "the pro tenant's on-time goodput never pays for the batch "
       "tenant's flood",
       "band", part="matrix", config="noisy_neighbor",
       metric="pro_goodput_ratio", lo=1.0, hi=math.inf),
    _c("SL.hotshard_split_fires", "slo",
       "sustained heat on one shard triggers exactly one split",
       "band", part="hotshard", metric="splits", lo=1.0, hi=1.0),
    _c("SL.hotshard_split_halves_p99", "slo",
       "splitting the hot shard at least halves its p99 latency",
       "band", part="hotshard", metric="p99_split_ratio",
       lo=2.0, hi=math.inf),

    # Q — distributed scan queries: pushdown vs pull
    _c("Q.identical_answers", "query",
       "pushdown and pull return bitwise-identical answers for "
       "every query shape",
       "band", part="identity", metric="all_identical",
       lo=1.0, hi=1.0),
    _c("Q.auto_plan_identical", "query",
       "the planner-driven auto plan returns the same answer as "
       "either forced plan",
       "band", part="identity", metric="auto_matches",
       lo=1.0, hi=1.0),
    _c("Q.pushdown_frees_host_cores", "query",
       "at 8 nodes the pushdown plan burns >10x fewer coordinator "
       "host cycles than pulling the table",
       "ratio_at", part="scatter",
       numerator="pull_host_busy_ms",
       denominator="pushdown_host_busy_ms",
       row=8, min_factor=10.0),
    _c("Q.pushdown_starves_wire", "query",
       "pushdown moves >50x fewer bytes to the coordinator than "
       "shipping raw shards",
       "ratio_at", part="scatter",
       numerator="pull_wire_bytes",
       denominator="pushdown_wire_bytes",
       row=8, min_factor=50.0),
    _c("Q.pushdown_scales_out", "query",
       "pushdown latency improves monotonically as shards spread "
       "over more DPUs",
       "monotonic", part="scatter", series="pushdown_speedup"),
    _c("Q.fast_network_pull_wins", "query",
       "the honest regime: at 100 Gbps pulling to EPYC cores beats "
       "pushdown latency at every node count",
       "dominates", part="scatter",
       winner="pushdown_ms", loser="pull_ms", min_factor=1.0),
    _c("Q.planner_matches_measured", "query",
       "the cluster-aware cost model picks the measured-argmin plan "
       "in every benchmarked regime",
       "band", part="planner", config="*", metric="matches",
       lo=1.0, hi=1.0),
    _c("Q.wide_scan_never_pushes", "query",
       "a non-selective full scan is never pushed down — pushdown "
       "cannot shrink what it ships",
       "band", part="planner", config="wide_fast",
       metric="planner_pushdown", lo=0.0, hi=0.0),
    _c("Q.slow_network_flips_to_pushdown", "query",
       "on a 2 Gbps fabric the selective aggregate flips to "
       "pushdown for every shard",
       "band", part="planner", config="agg_slow",
       metric="pushdown_shard_fraction", lo=1.0, hi=1.0),
    _c("Q.misdirected_scans_forwarded", "query",
       "a stale coordinator's scan sub-queries ride the DPU-side "
       "forwarding path",
       "band", part="routing", metric="forwards",
       lo=1.0, hi=math.inf),
    _c("Q.stale_routing_still_exact", "query",
       "forwarded scans return exactly the fresh coordinator's "
       "answer",
       "band", part="routing", metric="matches_truth",
       lo=1.0, hi=1.0),
)


# -- selectors --------------------------------------------------------------


class _Missing(Exception):
    """A part/series/metric the claim needs is absent (schema drift)."""


def _get_part(artifact: Dict[str, Any], claim: Claim) -> Dict[str, Any]:
    experiment = artifact["experiments"][claim.experiment]
    part_name = claim.params["part"]
    try:
        return experiment["parts"][part_name]
    except KeyError:
        raise _Missing(f"part {part_name!r} missing from "
                       f"{claim.experiment}")


def _sweep_rows(part: Dict[str, Any]) -> List[Dict[str, Any]]:
    if part.get("type") != "sweep":
        raise _Missing(f"expected a sweep part, got {part.get('type')!r}")
    rows = part["rows"]
    if not rows:
        raise _Missing("sweep has no rows")
    return rows


def _series(part: Dict[str, Any], name: str) -> List[float]:
    values = []
    for row in _sweep_rows(part):
        if name not in row["values"]:
            raise _Missing(f"series {name!r} missing at "
                           f"x={row['x']}")
        values.append(row["values"][name])
    return values


def _pick_row(part: Dict[str, Any], row_sel: Any) -> Dict[str, Any]:
    rows = _sweep_rows(part)
    if row_sel in ("last", None):
        return rows[-1]
    if row_sel == "first":
        return rows[0]
    for row in rows:
        if row["x"] == row_sel:
            return row
    raise _Missing(f"no sweep row at x={row_sel!r}")


def _scalar(part: Dict[str, Any], params: Mapping[str, Any]) -> float:
    """Resolve one numeric value from any part type.

    Tables name a ``metric``; nested parts add a ``config``; sweeps
    name a ``series`` plus an optional ``row`` selector.
    """
    kind = part.get("type")
    if kind == "table":
        metric = params["metric"]
        if metric not in part["values"]:
            raise _Missing(f"metric {metric!r} missing")
        return part["values"][metric]
    if kind == "nested":
        config, metric = params["config"], params["metric"]
        if config not in part["rows"]:
            raise _Missing(f"config {config!r} missing")
        if metric not in part["rows"][config]:
            raise _Missing(f"metric {config}/{metric!r} missing")
        return part["rows"][config][metric]
    if kind == "sweep":
        series = params.get("series", params.get("metric"))
        row = _pick_row(part, params.get("row"))
        if series not in row["values"]:
            raise _Missing(f"series {series!r} missing at "
                           f"x={row['x']}")
        return row["values"][series]
    raise _Missing(f"unknown part type {kind!r}")


# -- check kinds ------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, float) and (
            abs(value) >= 1000 or (value != 0 and abs(value) < 0.001)):
        return f"{value:.3e}"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _check_monotonic(claim, part):
    names = claim.params["series"]
    if isinstance(names, str):
        names = [names]
    tolerance = claim.params.get("tolerance", 0.02)
    for name in names:
        values = _series(part, name)
        for a, b in zip(values, values[1:]):
            if b < a * (1 - tolerance) - 1e-12:
                return FAIL, f"{name}: {_fmt(a)} -> {_fmt(b)}", \
                    "non-decreasing"
    return PASS, f"{', '.join(names)} non-decreasing", "non-decreasing"


def _check_linear(claim, part):
    name = claim.params["series"]
    floor = claim.params.get("r2_floor", 0.95)
    rows = _sweep_rows(part)
    xs = [row["x"] for row in rows]
    ys = _series(part, name)
    n = len(xs)
    if n < 3:
        return FAIL, f"{n} points", ">= 3 sweep points"
    mean_x, mean_y = fold_sum(xs) / n, fold_sum(ys) / n
    sxx = fold_sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return FAIL, "degenerate sweep", f"R^2 >= {floor}"
    slope = fold_sum((x - mean_x) * (y - mean_y)
                     for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = fold_sum((y - (slope * x + intercept)) ** 2
                      for x, y in zip(xs, ys))
    ss_tot = fold_sum((y - mean_y) ** 2 for y in ys)
    r2 = 1 - ss_res / ss_tot if ss_tot else 1.0
    status = PASS if r2 >= floor else FAIL
    return status, f"R^2 = {r2:.4f}", f"R^2 >= {floor}"


def _check_dominates(claim, part):
    winner, loser = claim.params["winner"], claim.params["loser"]
    factor = claim.params.get("min_factor", 1.0)
    worst = math.inf
    for w, l in zip(_series(part, winner), _series(part, loser)):
        ratio = w / l if l else math.inf
        worst = min(worst, ratio)
    status = PASS if worst >= factor else FAIL
    return status, f"min {winner}/{loser} = {_fmt(worst)}", \
        f">= {factor}x at every row"


def _check_ratio_at(claim, part):
    row = _pick_row(part, claim.params.get("row"))
    numerator = claim.params["numerator"]
    denominator = claim.params["denominator"]
    for name in (numerator, denominator):
        if name not in row["values"]:
            raise _Missing(f"series {name!r} missing at x={row['x']}")
    den = row["values"][denominator]
    ratio = row["values"][numerator] / den if den else math.inf
    factor = claim.params["min_factor"]
    status = PASS if ratio >= factor else FAIL
    return status, \
        f"{numerator}/{denominator} = {_fmt(ratio)} at " \
        f"x={_fmt(row['x'])}", f">= {factor}x"


def _check_band(claim, part):
    lo, hi = claim.params["lo"], claim.params["hi"]
    name = claim.params.get("metric", claim.params.get("series"))
    hi_str = "inf" if hi == math.inf else _fmt(hi)
    expected = f"in [{_fmt(lo)}, {hi_str}]"
    # config="*" or a list of configs on a nested part: the band must
    # hold per config.
    configs = claim.params.get("config")
    if part.get("type") == "nested" and \
            (configs == "*" or isinstance(configs, list)):
        if configs == "*":
            configs = list(part["rows"])
        if not configs:
            raise _Missing("nested part has no configs")
        for config in configs:
            value = _scalar(part, {**claim.params, "config": config})
            if not lo <= value <= hi:
                return FAIL, f"{config}: {name} = {_fmt(value)}", \
                    expected
        return PASS, f"{name} in band for all " \
            f"{len(configs)} configs", expected
    value = _scalar(part, claim.params)
    status = PASS if lo <= value <= hi else FAIL
    return status, f"{name} = {_fmt(value)}", expected


def _check_order(claim, part):
    base = dict(claim.params)
    sides = []
    for side in ("smaller", "larger"):
        name, row = base[side], base.get(f"{side}_row")
        value = _scalar(part, {**base, "metric": name, "series": name,
                               "row": base.get("row") if row is None
                               else row})
        # a cross-row comparison names its rows: "m[last] < m[first]"
        sides.append((name if row is None else f"{name}[{row}]", value))
    (smaller_name, smaller), (larger_name, larger) = sides
    status = PASS if smaller < larger else FAIL
    return status, \
        f"{smaller_name} = {_fmt(smaller)}, " \
        f"{larger_name} = {_fmt(larger)}", \
        f"{smaller_name} < {larger_name}"


def _check_rel_close(claim, part):
    a_name, b_name = claim.params["a"], claim.params["b"]
    rel = claim.params.get("rel_tol", 0.2)
    absolute = claim.params.get("abs_tol", 0.0)
    worst = 0.0
    for a, b in zip(_series(part, a_name), _series(part, b_name)):
        gap = abs(a - b)
        allowed = rel * abs(b) + absolute
        if allowed:
            worst = max(worst, gap / allowed)
        elif gap:
            return FAIL, f"|{a_name}-{b_name}| = {_fmt(gap)}", \
                "within tolerance at every row"
    status = PASS if worst <= 1.0 else FAIL
    return status, f"worst gap = {worst:.2f}x the tolerance", \
        f"|{a_name}-{b_name}| <= {rel}*{b_name} + {absolute}"


def _check_nested_ratio(claim, part):
    if part.get("type") != "nested":
        raise _Missing(f"expected a nested part, got "
                       f"{part.get('type')!r}")
    metric = claim.params["metric"]
    rows = part["rows"]
    sides = []
    for selector in (claim.params["numerator_config"],
                     claim.params["denominator_config"]):
        # "*": the ratio must hold against every config on that side
        # (a config is never paired with itself).
        configs = list(rows) if selector == "*" else [selector]
        for config in configs:
            if config not in rows:
                raise _Missing(f"config {config!r} missing")
            if metric not in rows[config]:
                raise _Missing(f"metric {config}/{metric!r} missing")
        sides.append(configs)
    pairs = [(num, den) for num in sides[0] for den in sides[1]
             if num != den]
    if not pairs:
        raise _Missing("no two configs to compare")

    def ratio(pair):
        den = rows[pair[1]][metric]
        return rows[pair[0]][metric] / den if den else math.inf

    num_cfg, den_cfg = min(pairs, key=ratio)
    worst = ratio((num_cfg, den_cfg))
    factor = claim.params["min_factor"]
    status = PASS if worst >= factor else FAIL
    return status, \
        f"{metric}: {num_cfg} / {den_cfg} = {_fmt(worst)}", \
        f">= {factor}x"


_CHECKS = {
    "monotonic": _check_monotonic,
    "linear": _check_linear,
    "dominates": _check_dominates,
    "ratio_at": _check_ratio_at,
    "band": _check_band,
    "order": _check_order,
    "rel_close": _check_rel_close,
    "nested_ratio": _check_nested_ratio,
}


# -- evaluation -------------------------------------------------------------


def evaluate_claim(claim: Claim,
                   artifact: Dict[str, Any]) -> ClaimResult:
    """One claim against one artifact document."""
    if claim.experiment not in artifact.get("experiments", {}):
        return ClaimResult(claim, SKIP,
                           detail=f"experiment {claim.experiment!r} "
                                  "not in artifact")
    check = _CHECKS.get(claim.kind)
    if check is None:
        return ClaimResult(claim, FAIL,
                           detail=f"unknown claim kind {claim.kind!r}")
    try:
        part = _get_part(artifact, claim)
        status, measured, expected = check(claim, part)
    except _Missing as exc:
        return ClaimResult(claim, FAIL, detail=str(exc))
    return ClaimResult(claim, status, measured=measured,
                       expected=expected)


def evaluate_all(artifact: Dict[str, Any],
                 claims: Optional[Tuple[Claim, ...]] = None,
                 ) -> List[ClaimResult]:
    """Every claim in the registry against one artifact."""
    return [evaluate_claim(claim, artifact)
            for claim in (claims if claims is not None else CLAIMS)]


def render_claim_report(results: List[ClaimResult]) -> str:
    """The PASS/FAIL/SKIP table ``--check`` prints."""
    from ..bench.reporting import format_table

    rows = []
    for result in results:
        rows.append([
            result.status,
            result.claim.id,
            result.measured or result.detail,
            result.expected,
        ])
    counts = {status: fold_sum(1 for r in results if r.status == status)
              for status in (PASS, FAIL, SKIP)}
    table = format_table(["status", "claim", "measured", "expected"],
                         rows)
    summary = (f"{counts[PASS]} passed, {counts[FAIL]} failed, "
               f"{counts[SKIP]} skipped "
               f"of {len(results)} paper claims")
    return f"{table}\n\n{summary}"
