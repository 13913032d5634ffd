"""Cost-model tests (the paper's cost motivation, quantified)."""

import pytest

from repro.bench.tco import (
    CostAssumptions,
    DEFAULT_COST_ASSUMPTIONS,
    storage_server_cost,
)


def _break_even_host_cores(assumptions=DEFAULT_COST_ASSUMPTIONS):
    """Host cores a DPU must displace to pay for itself."""
    return (assumptions.dpu_hour_dollars()
            / assumptions.host_core_hour_dollars())


class TestCostModel:
    def test_host_core_hour_in_plausible_band(self):
        dollars = DEFAULT_COST_ASSUMPTIONS.host_core_hour_dollars()
        # Amortized bare-metal core-hour: cents, not dollars.
        assert 0.001 < dollars < 0.05

    def test_dpu_hour_in_plausible_band(self):
        dollars = DEFAULT_COST_ASSUMPTIONS.dpu_hour_dollars()
        assert 0.01 < dollars < 0.2

    def test_break_even_is_on_the_order_of_tens_of_cores(self):
        """The economics behind the S9 phrasing: the DPU pays for
        itself only when it displaces on the order of 10+ cores."""
        break_even = _break_even_host_cores()
        assert 5 < break_even < 30

    def test_line_rate_savings_beat_dpu_cost(self):
        """At the measured ~21.7 line-rate cores saved, DDS wins."""
        conventional = storage_server_cost(21.7, uses_dpu=False)
        dds = storage_server_cost(0.9, uses_dpu=True)
        assert dds < conventional

    def test_small_savings_do_not_pay_off(self):
        """Below break-even, keep the plain server — an honest model
        must show both regimes."""
        conventional = storage_server_cost(3.0, uses_dpu=False)
        dds = storage_server_cost(0.2, uses_dpu=True)
        assert dds > conventional

    def test_custom_assumptions(self):
        cheap_dpu = CostAssumptions(dpu_dollars=500.0)
        assert cheap_dpu.dpu_hour_dollars() < \
            DEFAULT_COST_ASSUMPTIONS.dpu_hour_dollars()
        assert _break_even_host_cores(cheap_dpu) < \
            _break_even_host_cores()

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            storage_server_cost(-1.0, uses_dpu=False)
