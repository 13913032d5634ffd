"""Fast smoke tests of every experiment function.

The full suite is ``python -m repro.bench``, and the claims in
``repro/obs/claims.py`` assert its results.  Here an experiment that
costs well under a second runs at full size; a sweep (F2, F3, S9, A5)
runs one of its rows, shortened, so a broken experiment fails in the
unit suite, not only in the long bench run.
"""

from functools import partial

import pytest

from repro.bench import (
    A5_ROWS,
    FIG2_ROWS,
    FIG3_ROWS,
    S9_ROWS,
    ablation_caching,
    ablation_persistence,
    ablation_portability,
    ablation_scheduling,
    fig1_compression,
    fig1_real_bytes_checkpoint,
    fig6_sproc,
    fig7_rdma,
    fig8_dds_latency,
)
from repro.hardware import BLUEFIELD2, GENERIC_DPU


def _row(rows, name, **changes):
    """Run the row ``rows[name]`` with some of its inputs replaced."""
    row = rows[name]
    return partial(row.func, **{**row.keywords, **changes})()


class TestMicroExperiments:
    def test_fig1_shape(self):
        sweep = fig1_compression()
        assert len(sweep.rows) == 5
        for row in sweep.rows:
            assert row["arm_s"] > row["epyc_s"] > row["bf2_asic_s"]

    def test_fig1_checkpoint(self):
        outcome = fig1_real_bytes_checkpoint()
        assert outcome["ratio"] > 2.0

    def test_fig2_point(self):
        kernel = _row(FIG2_ROWS, "kernel.150", rate=100_000.0,
                      duration_s=0.005)
        dpdpu = _row(FIG2_ROWS, "dpdpu.150", rate=100_000.0,
                     duration_s=0.005)
        # ~18 K cycles * 100 K/s / 3 GHz = 0.6 cores.
        assert kernel["kernel_cores"] == pytest.approx(0.6, rel=0.1)
        assert dpdpu["dpdpu_host_cores"] < 0.1

    def test_fig3_point(self):
        rate = FIG3_ROWS["kernel.10"].keywords["rate"] * 2    # 20 Gbps
        kernel = _row(FIG3_ROWS, "kernel.10", rate=rate,
                      duration_s=0.004)
        ne = _row(FIG3_ROWS, "ne.10", rate=rate, duration_s=0.004)
        assert kernel["kernel_tx_cores"] > 1.0
        assert ne["ne_host_cores"] < kernel["kernel_tx_cores"] / 4


class TestSystemExperiments:
    def test_fig6_both_modes(self):
        specified = fig6_sproc(BLUEFIELD2, "specified",
                               n_invocations=4)
        scheduled = fig6_sproc(BLUEFIELD2, "scheduled",
                               n_invocations=4)
        assert specified["asic_fraction"] == 1.0
        assert scheduled["pages_received"] == 32.0

    def test_fig6_fallback(self):
        outcome = fig6_sproc(GENERIC_DPU, "specified", n_invocations=4)
        assert outcome["asic_fraction"] == 0.0
        assert outcome["pages_received"] == 32.0

    def test_fig6_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            fig6_sproc(BLUEFIELD2, "oracle")

    def test_fig7_saving(self):
        outcome = fig7_rdma()
        assert outcome["host_cycles_saved_factor"] > 3.0

    def test_fig8_dds_wins(self):
        outcome = fig8_dds_latency(None)
        assert outcome["dds_mean_s"] < outcome["host_path_mean_s"]

    def test_s9_point(self):
        baseline = _row(S9_ROWS, "pageserver.host.100", duration_s=0.005)
        dds = _row(S9_ROWS, "pageserver.dds.100", duration_s=0.005)
        assert baseline["host_cores"] > dds["host_cores"]

    def test_s9_kv_workload(self):
        baseline = _row(S9_ROWS, "kv.host.100", duration_s=0.005)
        dds = _row(S9_ROWS, "kv.dds.100", duration_s=0.005)
        assert baseline["host_cores"] > dds["host_cores"]

    def test_s9_rejects_bad_workload(self):
        with pytest.raises(ValueError):
            _row(S9_ROWS, "kv.dds.100", workload="oltp")


class TestAblations:
    def test_scheduling_ordering(self):
        results = ablation_scheduling()
        assert results["fcfs"]["short_wait_p99_s"] > \
            results["hybrid"]["short_wait_p99_s"]

    def test_portability_all_profiles(self):
        results = ablation_portability()
        assert set(results) == {"bluefield2", "bluefield3",
                                "intel-ipu", "generic-dpu"}
        assert results["generic-dpu"]["asic_fraction"] == 0.0

    def test_caching_extremes(self):
        sweep = ablation_caching()
        all_host, all_dpu = sweep.rows[0], sweep.rows[-1]
        assert all_dpu["remote_mean_s"] < all_host["remote_mean_s"]

    def test_persistence_speedup(self):
        outcome = ablation_persistence()
        assert outcome["speedup"] > 1.5

    def test_partial_offload_tracks_mix(self):
        def offloaded(name):
            return _row(A5_ROWS, name, rate=80_000.0,
                        duration_s=0.005)["offload_fraction"]

        assert offloaded("dds.1.0") == pytest.approx(1.0, abs=0.05)
        assert offloaded("dds.0.5") == pytest.approx(0.5, abs=0.1)
