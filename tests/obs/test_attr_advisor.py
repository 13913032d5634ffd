"""Tests for the offload advisor (``repro.obs.attr.advisor``)."""

import pytest

from repro.hardware import BLUEFIELD2, EPYC_HOST, GPU_SPEC, make_server
from repro.obs.attr import AttributionReport, OffloadAdvisor
from repro.obs.attr.criticalpath import KernelObservation
from repro.sim import Environment
from repro.units import MB


def _advisor(**kwargs):
    return OffloadAdvisor(make_server(Environment(),
                                      dpu_profile=BLUEFIELD2, **kwargs))


class TestEstimate:
    def setup_method(self):
        self.advisor = _advisor()

    def test_prices_match_the_cost_tables(self):
        nbytes = 1 * MB
        estimates = self.advisor.estimate("compress", nbytes)
        costs = self.advisor.server.costs
        host_cycles = costs.cpu_cycles("compress", nbytes, "host")
        host = estimates["host_cpu"]
        assert host.service_s == pytest.approx(
            host_cycles / EPYC_HOST.frequency_hz)
        # the host is across PCIe: input out, output back
        assert host.pcie_s == pytest.approx(
            2 * nbytes / (BLUEFIELD2.pcie_bandwidth_bps / 8))
        assert host.host_cycles == host_cycles
        assert estimates["dpu_cpu"].host_cycles == 0.0
        assert estimates["dpu_cpu"].pcie_s == 0.0
        spec = BLUEFIELD2.accelerator_spec(
            costs.kernel("compress").asic_kind)
        assert estimates["dpu_asic"].service_s == pytest.approx(
            spec.setup_latency_s
            + nbytes / spec.throughput_bytes_per_s)

    def test_kernel_without_accelerator_has_no_asic_entry(self):
        estimates = self.advisor.estimate("crc32", 1 * MB)
        assert set(estimates) == {"dpu_cpu", "host_cpu"}

    def test_prices_the_servers_own_peers(self):
        advisor = _advisor(peer_specs=(GPU_SPEC,))
        assert set(advisor.estimate("crc32", 1 * MB)) == {
            "dpu_cpu", "host_cpu", "pcie_gpu"}

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            self.advisor.estimate("no_such_kernel", 1024)


class TestRecommend:
    def setup_method(self):
        self.advisor = _advisor()

    def test_compress_moves_to_the_asic(self):
        recommendation = self.advisor.recommend("compress", 1 * MB)
        assert recommendation.placement == "dpu_asic"
        assert recommendation.latency_delta_vs_host_s < 0
        assert recommendation.host_cycles_saved_per_call > 0

    def test_crc32_stays_on_the_host(self):
        recommendation = self.advisor.recommend("crc32", 1 * MB)
        assert recommendation.placement == "host_cpu"
        assert recommendation.latency_delta_vs_host_s == 0.0
        assert recommendation.host_cycles_saved_per_call == 0.0

    def test_recommendation_is_deterministic(self):
        first = self.advisor.recommend("encrypt", 4 * MB)
        second = _advisor().recommend("encrypt", 4 * MB)
        assert first.placement == second.placement
        assert first.estimates.keys() == second.estimates.keys()


def _census(kernel, device, calls, nbytes, seconds):
    observation = KernelObservation(kernel, device)
    observation.calls = calls
    observation.bytes_total = calls * nbytes
    observation.seconds_total = calls * seconds
    return observation


class TestAdvise:
    def test_rows_from_an_observed_census(self):
        report = AttributionReport([], kernels={
            ("compress", "host_cpu"):
                _census("compress", "host_cpu", 4, 1 * MB, 7e-3),
            ("crc32", "host_cpu"):
                _census("crc32", "host_cpu", 2, 1 * MB, 2e-4),
        })
        rows = _advisor().advise(report)
        assert set(rows) == {"compress@host_cpu", "crc32@host_cpu"}
        compress = rows["compress@host_cpu"]
        assert compress["recommended_dpu_asic"] == 1.0
        assert compress["host_cycles_saved_per_call"] > 0
        assert compress["already_recommended"] == 0.0
        assert compress["est_gain_vs_current_s"] > 0
        crc32 = rows["crc32@host_cpu"]
        assert crc32["recommended_host_cpu"] == 1.0
        assert crc32["already_recommended"] == 1.0
        # numeric-only rows: artifact nested parts require it
        for row in rows.values():
            assert all(isinstance(value, float) or
                       isinstance(value, int)
                       for value in row.values())

    def test_unpriceable_kernels_are_skipped(self):
        report = AttributionReport([], kernels={
            ("custom_udf", "dpu_cpu"):
                _census("custom_udf", "dpu_cpu", 1, 1024, 1e-6),
        })
        assert _advisor().advise(report) == {}
