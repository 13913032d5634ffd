"""Query layer tests: planner decisions and plan-equivalent execution."""

import pytest

from repro.query import (
    DistributedScanDeployment,
    PlanEstimate,
    ScanQuery,
    explain,
    plan_scan,
    run_distributed_scan as run_scan,
)
from repro.units import Gbps, MB


def _selective_query():
    return ScanQuery(
        predicate_column="quantity",
        predicate=lambda value: int(value) >= 45,
        projection=["orderkey", "extendedprice"],
        estimated_selectivity=0.12,
    )


def _aggregate_query():
    return ScanQuery(
        predicate_column="returnflag",
        predicate=lambda value: value == b"A",
        aggregate_column="extendedprice",
        estimated_selectivity=0.33,
    )


class TestPlanner:
    def test_returns_both_estimates(self):
        plan = plan_scan(_selective_query(), 10 * MB, 7)
        assert isinstance(plan["pull"], PlanEstimate)
        assert isinstance(plan["pushdown"], PlanEstimate)
        assert plan["choice"] in ("pull", "pushdown")

    def test_pushdown_ships_fewer_bytes(self):
        plan = plan_scan(_selective_query(), 10 * MB, 7)
        assert plan["pushdown"].bytes_on_wire < \
            plan["pull"].bytes_on_wire / 10

    def test_slow_network_favours_pushdown(self):
        query = _selective_query()
        fast = plan_scan(query, 10 * MB, 7, network_bps=200 * Gbps)
        slow = plan_scan(query, 10 * MB, 7, network_bps=2 * Gbps)
        assert slow["choice"] == "pushdown"
        # On a very fast network the host's faster cores win.
        assert fast["choice"] == "pull"

    def test_aggregates_ship_constant_bytes(self):
        plan = plan_scan(_aggregate_query(), 100 * MB, 7)
        assert plan["pushdown"].bytes_on_wire < 1000

    def test_nonselective_wide_query_prefers_pull(self):
        query = ScanQuery(
            predicate_column="quantity",
            predicate=lambda value: True,
            estimated_selectivity=1.0,
        )
        plan = plan_scan(query, 10 * MB, 7, network_bps=100 * Gbps)
        # Nothing is saved on the wire; the DPU's slower cores lose.
        assert plan["choice"] == "pull"

    def test_selectivity_crossover(self):
        # The paper's Section-4 pushdown example as a sweep: a 64 MB
        # table, selectivity 1% -> 100%, thin vs fat fabric.
        def sweep(network_bps):
            plans = []
            for selectivity in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0):
                query = ScanQuery(
                    predicate_column="quantity",
                    predicate=lambda value: True,
                    projection=["orderkey"],
                    estimated_selectivity=selectivity,
                )
                plans.append(plan_scan(query, 64 * MB, 7,
                                       network_bps=network_bps))
            return plans

        slow, fast = sweep(10 * Gbps), sweep(200 * Gbps)
        # On a thin network pushdown wins at every selectivity worth
        # pushing; on a fat one the faster host cores win everywhere.
        assert all(plan["choice"] == "pushdown" for plan in slow[:4])
        assert all(plan["choice"] == "pull" for plan in fast)
        # Wire savings track selectivity.
        fractions = [plan["pushdown"].bytes_on_wire
                     / plan["pull"].bytes_on_wire for plan in slow]
        assert fractions == sorted(fractions)

    def test_explain_renders(self):
        text = explain(plan_scan(_selective_query(), 1 * MB, 7))
        assert "chosen plan" in text
        assert "pushdown" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanQuery(predicate_column="x",
                      predicate=lambda v: True,
                      estimated_selectivity=1.5)
        with pytest.raises(ValueError):
            plan_scan(_selective_query(), -1, 7)


class TestExecution:
    """The single-node deployment — one storage node, the whole table
    in one shard — is the scatter-gather engine's smallest case."""

    @pytest.fixture(scope="class")
    def deployment(self):
        return DistributedScanDeployment(n_nodes=1, n_rows=1200,
                                         n_shards=1, seed=31)

    def test_plans_agree_on_projection_query(self, deployment):
        query = _selective_query()
        pushdown = run_scan(deployment, query, plan="pushdown")
        pull = run_scan(deployment, query, plan="pull")
        assert pushdown["result"].matches(pull["result"])
        truth = query.evaluate(deployment.table_bytes,
                               deployment.schema)
        assert pushdown["result"].matches(truth)
        assert truth.count > 0

    def test_plans_agree_on_aggregate_query(self, deployment):
        query = _aggregate_query()
        pushdown = run_scan(deployment, query, plan="pushdown")
        pull = run_scan(deployment, query, plan="pull")
        assert pushdown["result"].matches(pull["result"])
        assert pushdown["result"].total == pytest.approx(
            pull["result"].total, rel=1e-9
        )

    def test_pushdown_moves_fewer_bytes(self, deployment):
        query = _selective_query()
        pushdown = run_scan(deployment, query, plan="pushdown")
        pull = run_scan(deployment, query, plan="pull")
        assert pushdown["bytes_received"] < \
            pull["bytes_received"] / 5

    def test_auto_plan_runs(self, deployment):
        outcome = run_scan(deployment, _selective_query())
        assert outcome["choices"][0] in ("pull", "pushdown")
        assert outcome["result"].count > 0

    def test_unknown_plan_rejected(self, deployment):
        with pytest.raises(ValueError):
            run_scan(deployment, _selective_query(), plan="teleport")

    def test_unknown_column_rejected(self, deployment):
        query = ScanQuery(predicate_column="ghost",
                          predicate=lambda v: True)
        with pytest.raises(KeyError):
            run_scan(deployment, query)

    def test_no_projection_returns_full_rows(self, deployment):
        query = ScanQuery(
            predicate_column="returnflag",
            predicate=lambda value: value == b"R",
            estimated_selectivity=0.33,
        )
        pushdown = run_scan(deployment, query, plan="pushdown")
        truth = query.evaluate(deployment.table_bytes,
                               deployment.schema)
        assert pushdown["result"].matches(truth)
        # Full rows: every returned row has all columns.
        n_columns = len(deployment.schema.columns)
        for row in pushdown["result"].rows:
            assert len(row.split(b",")) == n_columns
