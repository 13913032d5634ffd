"""Tests for the bench harness and reporting."""

import pytest

from repro.bench import CoreMeter, Sweep, banner, format_table
from repro.bench.__main__ import _render_parts
from repro.hardware import CpuCluster
from repro.obs.artifact import encode_part, make_artifact
from repro.obs.claims import Claim, evaluate_claim
from repro.sim import Environment
from repro.units import GHZ


class TestCoreMeter:
    def test_measures_window_only(self):
        env = Environment()
        cpu = CpuCluster(env, cores=4, frequency_hz=1 * GHZ)

        def work():
            yield from cpu.execute(2 * GHZ)     # 2 core-seconds

        env.process(work())
        env.run(until=1.0)                       # pre-window work
        meter = CoreMeter(cpu)
        meter.start()

        def more_work():
            yield from cpu.execute(1 * GHZ)

        env.process(more_work())
        env.run(until=3.0)
        # Window is [1, 3]: 1s of leftover work + 1s of new work = 2
        # core-seconds over 2 seconds elapsed -> 1.0 cores.
        assert meter.cores() == pytest.approx(1.0)

    def test_zero_elapsed_returns_zero(self):
        env = Environment()
        cpu = CpuCluster(env, cores=1, frequency_hz=1 * GHZ)
        meter = CoreMeter(cpu)
        meter.start()
        assert meter.cores() == 0.0

    def test_unstarted_meter_reads_zero(self):
        env = Environment()
        cpu = CpuCluster(env, cores=2, frequency_hz=1 * GHZ)

        def work():
            yield from cpu.execute(1 * GHZ)

        env.process(work())
        env.run(until=2.0)
        meter = CoreMeter(cpu)
        # No window opened: the meter reads 0.0 rather than dividing
        # by a bogus start time.
        assert meter.cores() == 0.0


class TestSweepAssertions:
    """The shape checks a Sweep is held to, on the cases the deleted
    ``Sweep.assert_*`` methods were tested with — now run through the
    one surviving implementation, the claims evaluator, by way of the
    artifact encoding."""

    def _sweep(self, pairs):
        sweep = Sweep("x")
        for x, y in pairs:
            sweep.add(x, y=y)
        return sweep

    def _status(self, sweep, kind, **params):
        artifact = make_artifact(
            {"exp": {"title": "exp", "wall_clock_s": 0.0,
                     "parts": {"p": encode_part(sweep)}}},
            provenance={"python": "3", "platform": "test",
                        "workload_seed": 13})
        claim = Claim("T.shape", "exp", "shape", kind,
                      {"part": "p", **params})
        return evaluate_claim(claim, artifact).status

    def test_monotonic_passes(self):
        assert self._status(self._sweep([(1, 1), (2, 2), (3, 3)]),
                            "monotonic", series="y") == "PASS"

    def test_monotonic_fails_on_decrease(self):
        assert self._status(self._sweep([(1, 3), (2, 1), (3, 2)]),
                            "monotonic", series="y") == "FAIL"

    def test_monotonic_tolerates_noise(self):
        sweep = self._sweep([(1, 100), (2, 99.5), (3, 200)])
        assert self._status(sweep, "monotonic", series="y",
                            tolerance=0.02) == "PASS"
        assert self._status(sweep, "monotonic", series="y",
                            tolerance=0.0) == "FAIL"

    def test_linear_passes(self):
        sweep = self._sweep([(1, 2.1), (2, 4.0), (3, 5.9), (4, 8.05)])
        assert self._status(sweep, "linear", series="y") == "PASS"

    def test_linear_fails_on_quadratic(self):
        sweep = self._sweep([(1, 1), (2, 4), (3, 9), (4, 16), (5, 25),
                             (6, 36), (8, 64), (10, 100)])
        assert self._status(sweep, "linear", series="y",
                            r2_floor=0.99) == "FAIL"

    def test_dominates(self):
        sweep = Sweep("x")
        sweep.add(1, big=10, small=2)
        sweep.add(2, big=20, small=3)
        assert self._status(sweep, "dominates", winner="big",
                            loser="small", min_factor=3.0) == "PASS"
        assert self._status(sweep, "dominates", winner="big",
                            loser="small", min_factor=8.0) == "FAIL"

    def test_series_extraction(self):
        sweep = self._sweep([(1, 5), (2, 6)])
        assert [row.x for row in sweep.rows] == [1, 2]
        assert [row["y"] for row in sweep.rows] == [5, 6]


class TestReporting:
    def test_table_alignment(self):
        table = format_table(["name", "value"],
                             [["alpha", 1.5], ["b", 22222.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_sweep_formatting(self):
        sweep = Sweep("rate")
        sweep.add(10, cores=1.5)
        sweep.add(20, cores=3.0)
        text = _render_parts({"p": encode_part(sweep)})
        assert "rate" in text
        assert "cores" in text
        assert "1.5" in text

    def test_empty_sweep(self):
        assert "empty" in _render_parts({"p": encode_part(Sweep("x"))})

    def test_banner(self):
        text = banner("Figure 1")
        assert "Figure 1" in text
        assert "=" in text

    def test_scientific_notation_for_extremes(self):
        table = format_table(["v"], [[0.0000012], [1234567.0]])
        assert "e-" in table or "E-" in table
        assert "e+" in table or "E+" in table
