"""Names, units and directions of everything hostbench reports.

``BENCHMARK.json`` and ``hostbench/baseline.json`` are written from
these tables, and ``hostbench/tests`` asserts that the runner emits
exactly these names — so a metric cannot be added in one place only.
"""

from __future__ import annotations

#: the seed the digests in ``baseline.json`` are pinned for
DEFAULT_SEED = 13
#: how long one driver run measures (``--seconds``); ``noise`` runs
#: the same form
RUN_SECONDS = 20

#: name -> (loop kind inside the simulation, suite experiment it
#: mirrors, one-line why)
WORKLOADS = {
    "dds_serving": (
        "open", "s9",
        "paper headline (S9): page-server mix at 400 kreq/s through DDS "
        "and the host-served twin; kernel + TCP + device models, no "
        "cluster, no tracing"),
    "cluster_chaos": (
        "open", "slo",
        "3-node cluster, 50% writes, admission, autoscaler, plane and a "
        "DPU crash, pure DES; adds router/switch/faults to the "
        "dds_serving mix"),
    "cluster_traced": (
        "open", "obs/attr",
        "cluster_chaos inputs with tracing on plus attribution report; "
        "obs work is the only difference, so an obs change shows here "
        "and not on cluster_chaos"),
    "scan_pushdown": (
        "closed", "query",
        "few large scatter-gather scans under both plans on fast and "
        "slow fabric; query/kernels/predicate code dominate, table "
        "generation lands in setup_s"),
    "kernels_real_bytes": (
        "closed", "fig1/fig6",
        "Figure-6 sprocs over real 64 KiB pages on BF-2 and a DPU "
        "without ASICs; from-scratch DEFLATE/AES/regex is the cost, "
        "the simulator core is idle"),
}

#: (name, unit, better, bound).  The bound is the share of the
#: parent's median a later PR may worsen the metric by.  The host
#: bounds are the issue's (20 % / 10 % / 10 %).  The ``sim_*`` bounds
#: only absorb seed-to-seed variation for the benchmark driver, which
#: varies ``--seed`` (README, "Noise"); at equal seed those metrics
#: repeat exactly and ``python -m hostbench compare`` compares them
#: exactly.  ``sim_us`` is a microsecond of simulated time.
END_TO_END = (
    ("setup_s", "s", "lower", 0.20),
    ("wall_s", "s", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_latency_p50_us", "sim_us", "lower", 0.10),
    ("sim_latency_p99_us", "sim_us", "lower", 0.15),
    ("sim_goodput_ops", "1/s", "higher", 0.10),
    ("sim_host_cores", "cores", "lower", 0.25),
)

#: the eighth end-to-end number: reported by name in the table and the
#: JSON, and to the driver as ``failed``/``attempted`` (it is always 0
#: on a healthy tree, which a ratio-bounded metric cannot be)
CHECK_METRIC = ("check_fail_ratio", "ratio", "lower")

#: the 17 layers sampled self-time is charged to, in report order;
#: ``other`` is stdlib + harness + repro modules outside the 16
LAYERS = (
    "sim.core", "sim.resources", "sim.batch", "sim.stats", "hardware",
    "netstack.tcp", "netstack.rings", "fs", "core", "cluster", "query",
    "workloads", "algos", "obs", "faults", "buffers", "other",
)

_WALL_DES = "wall_s on dds_serving, cluster_chaos, cluster_traced"

#: (name, unit, better, end-to-end metric it should move and where)
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower", moves) for layer, moves in (
        ("sim.core", _WALL_DES),
        ("sim.resources", "wall_s on dds_serving, cluster_chaos"),
        ("sim.batch", _WALL_DES),
        ("sim.stats", _WALL_DES),
        ("hardware", _WALL_DES),
        ("netstack.tcp", "wall_s on dds_serving, cluster_chaos"),
        ("netstack.rings", "wall_s on dds_serving"),
        ("fs", "wall_s on dds_serving"),
        ("core", "wall_s on scan_pushdown, dds_serving"),
        ("cluster", "wall_s on cluster_chaos, cluster_traced"),
        ("query", "wall_s on scan_pushdown"),
        ("workloads", "setup_s on scan_pushdown, dds_serving"),
        ("algos", "wall_s on kernels_real_bytes"),
        ("obs", "wall_s, peak_rss_mb on cluster_traced"),
        ("faults", "wall_s on cluster_chaos"),
        ("buffers", "wall_s on kernels_real_bytes"),
        ("other", "none (stdlib + harness)"),
    )] + [
        ("phase.build_s", "s", "lower", "setup_s"),
        ("phase.generate_s", "s", "lower", "setup_s"),
        ("phase.connect_s", "s", "lower", "setup_s"),
        ("phase.run_s", "s", "lower", "wall_s"),
        ("phase.collect_s", "s", "lower", "wall_s"),
        ("harness.import_s", "s", "lower", "setup_s"),
        ("harness.cpu_s", "s", "lower",
         "none (wall >> cpu means a noisy neighbour)"),
        ("harness.host_us_per_sim_op", "us", "lower", "wall_s"),
        ("harness.repeat_spread", "ratio", "lower",
         "none (above the bound, compare reports unresolved)"),
        ("harness.machine_speed", "ratio", "higher",
         "none (1 = reference box; normalised host times are raw "
         "seconds times it)"),
        ("trace.overhead_ratio", "ratio", "lower", "none"),
        ("trace.samples", "count", "higher", "none"),
        ("sim.core.entries", "count", "lower", _WALL_DES),
        ("sim.core.host_us_per_entry", "us", "lower", _WALL_DES),
        ("sim.core.pool_hit_ratio", "ratio", "higher",
         "wall_s, peak_rss_mb on the DES workloads"),
        ("sim.core.calendar_promotions", "count", "lower", _WALL_DES),
        ("sim.resources.served", "count", "lower",
         "wall_s on dds_serving, cluster_chaos"),
        ("hardware.host_cpu.busy_sim_s", "s", "lower", "sim_host_cores"),
        ("hardware.dpu_cpu.busy_sim_s", "s", "lower",
         "sim_latency_* (model changes only)"),
        ("hardware.nic.tx_frames", "count", "lower", _WALL_DES),
        ("hardware.nic.tx_bytes", "count", "lower",
         "sim_* (model changes only)"),
        ("hardware.switch.frames", "count", "lower",
         "wall_s on cluster_chaos, cluster_traced"),
        ("hardware.switch.drops", "count", "lower",
         "sim_goodput_ops on cluster_*"),
        ("hardware.ssd.ios", "count", "lower", "wall_s on dds_serving"),
        ("netstack.tcp.segments_tx", "count", "lower",
         "wall_s on dds_serving, cluster_chaos"),
        ("netstack.tcp.retransmits", "count", "lower",
         "sim_latency_p99_us on cluster_*"),
        ("core.dds.offloaded", "count", "higher", "sim_host_cores"),
        ("core.dds.forwarded", "count", "lower", "sim_host_cores"),
        ("core.dds.cores_saved", "cores", "higher",
         "sim_host_cores on dds_serving"),
        ("core.admission.admitted", "count", "higher",
         "sim_goodput_ops on cluster_*"),
        ("core.admission.rejected", "count", "lower",
         "sim_goodput_ops on cluster_*"),
        ("core.ce.kernel_execs", "count", "lower",
         "wall_s on scan_pushdown, kernels_real_bytes"),
        ("core.ce.degraded", "count", "lower", "sim_latency_*"),
        ("core.se.dpu_ops", "count", "lower", "wall_s on dds_serving"),
        ("core.se.host_ops", "count", "lower", "sim_host_cores"),
        ("cluster.router.forwards", "count", "lower",
         "wall_s on cluster_chaos, cluster_traced"),
        ("cluster.router.forward_failures", "count", "lower",
         "sim_goodput_ops on cluster_*"),
        ("cluster.shard_failovers", "count", "lower",
         "sim_host_cores on cluster_*"),
        ("cluster.nodes_final", "count", "lower",
         "sim_goodput_ops on cluster_*"),
        ("query.scans", "count", "lower", "wall_s on scan_pushdown"),
        ("query.rows_scanned", "count", "lower",
         "wall_s on scan_pushdown"),
        ("query.bytes_received", "count", "lower",
         "sim_latency_* on scan_pushdown"),
        ("query.scan_host_ms_p50", "ms", "lower",
         "wall_s on scan_pushdown"),
        ("query.scan_host_ms_p90", "ms", "lower",
         "wall_s on scan_pushdown"),
        ("algos.bytes_in", "count", "lower",
         "wall_s on kernels_real_bytes"),
        ("algos.bytes_out", "count", "lower",
         "sim_* on kernels_real_bytes (model changes only)"),
        ("algos.op_host_ms_p50", "ms", "lower",
         "wall_s on kernels_real_bytes"),
        ("algos.op_host_ms_p90", "ms", "lower",
         "wall_s on kernels_real_bytes"),
        ("obs.spans", "count", "lower",
         "wall_s, peak_rss_mb on cluster_traced"),
        ("obs.scrapes", "count", "lower", "wall_s on cluster_*"),
        ("obs.attr_requests", "count", "lower",
         "wall_s on cluster_traced"),
        ("obs.conservation_err_s", "s", "lower", "check_fail_ratio"),
        ("obs.overhead_ratio", "ratio", "lower",
         "wall_s on cluster_traced"),
        ("faults.injected", "count", "lower",
         "sim_goodput_ops on cluster_*"),
        ("workloads.ops_generated", "count", "lower", "setup_s"),
        ("client.issued", "count", "higher", "sim_goodput_ops"),
        ("client.ok", "count", "higher", "sim_goodput_ops"),
        ("client.late", "count", "lower", "sim_goodput_ops"),
        ("client.error", "count", "lower", "sim_goodput_ops"),
        ("client.pending", "count", "lower", "sim_goodput_ops"),
    ]
)

#: per-layer names whose value is a host measurement (noisy); every
#: other per-layer metric is a deterministic count compared exactly
HOST_PER_LAYER = frozenset(
    name for name, _unit, _better, _moves in PER_LAYER
    if name.endswith(".self_s") or name.startswith(("phase.", "harness.",
                                                    "trace."))
    or name in ("sim.core.host_us_per_entry", "query.scan_host_ms_p50",
                "query.scan_host_ms_p90", "algos.op_host_ms_p50",
                "algos.op_host_ms_p90", "obs.overhead_ratio")
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS[CHECK_METRIC[0]] = CHECK_METRIC[1]
