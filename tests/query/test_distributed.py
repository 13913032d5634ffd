"""Distributed scan tests: planner crossover, identity, forwarding."""

import pytest

import repro.buffers as buffers
from repro.cluster import encode_shard_scan, response_ok
from repro.query import (
    DistributedScanDeployment,
    QueryResult,
    ScanQuery,
    merge_partials,
    plan_distributed,
    run_distributed_scan,
)
from repro.units import Gbps, KB
from repro.workloads.tables import _table_rows

from scan_reference import reference_evaluate


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


def _wide_query():
    return ScanQuery(
        predicate_column="quantity",
        predicate=lambda value: int(value) >= 1,
        estimated_selectivity=1.0,
    )


def _exact(a: QueryResult, b: QueryResult) -> bool:
    return (a.count == b.count and a.rows == b.rows
            and a.total == b.total and a.minimum == b.minimum
            and a.maximum == b.maximum)


_SIZES = {0: 40 * KB, 1: 40 * KB, 2: 30 * KB}


class TestDistributedPlanner:
    def test_per_shard_choice_is_independent(self):
        plan = plan_distributed(_selective_query(), _SIZES, 7)
        assert set(plan["choices"]) == set(_SIZES)
        for choice in plan["choices"].values():
            assert choice in ("pull", "pushdown")

    def test_high_selectivity_wide_projection_pulls(self):
        query = ScanQuery(
            predicate_column="quantity",
            predicate=lambda value: int(value) >= 2,
            projection=["orderkey", "partkey", "returnflag",
                        "quantity", "extendedprice", "discount"],
            estimated_selectivity=0.95,
        )
        plan = plan_distributed(query, _SIZES, 7,
                                network_bps=100 * Gbps)
        assert all(choice == "pull"
                   for choice in plan["choices"].values())

    def test_selective_aggregate_on_slow_fabric_pushes(self):
        plan = plan_distributed(_aggregate_query(), _SIZES, 7,
                                network_bps=2 * Gbps)
        assert all(choice == "pushdown"
                   for choice in plan["choices"].values())
        assert plan["cluster_choice"] == "pushdown"

    def test_wide_scan_never_pushes(self):
        for bps in (2 * Gbps, 100 * Gbps):
            plan = plan_distributed(_wide_query(), _SIZES, 7,
                                    network_bps=bps)
            assert all(choice == "pull"
                       for choice in plan["choices"].values())
            assert plan["cluster_choice"] == "pull"

    def test_totals_equal_component_sums(self):
        plan = plan_distributed(_selective_query(), _SIZES, 7)
        for side in ("pull", "pushdown"):
            total = sum(plan["per_shard"][shard][side].total_s
                        for shard in _SIZES)
            assert plan[f"{side}_total_s"] == pytest.approx(total)
            for shard in _SIZES:
                estimate = plan["per_shard"][shard][side]
                assert estimate.total_s == pytest.approx(
                    estimate.network_s + estimate.compute_s)
        chosen = sum(
            plan["per_shard"][shard][plan["choices"][shard]].total_s
            for shard in _SIZES)
        assert plan["chosen_total_s"] == pytest.approx(chosen)

    def test_cluster_wall_estimates_present(self):
        plan = plan_distributed(_aggregate_query(), _SIZES, 7)
        assert plan["pull_wall_s"] > 0
        assert plan["pushdown_wall_s"] > 0
        assert plan["cluster_choice"] in ("pull", "pushdown")


class TestMergePartials:
    def test_aggregate_decomposition(self):
        query = _aggregate_query()
        partials = [
            QueryResult(rows=None, count=2, total=10.0,
                        minimum=4.0, maximum=6.0),
            QueryResult(rows=None, count=0, total=0.0,
                        minimum=None, maximum=None),
            QueryResult(rows=None, count=1, total=2.5,
                        minimum=2.5, maximum=2.5),
        ]
        merged = merge_partials(query, partials)
        assert merged.count == 3
        assert merged.total == 12.5
        assert merged.minimum == 2.5
        assert merged.maximum == 6.0
        assert merged.rows is None

    def test_all_empty_aggregate(self):
        merged = merge_partials(_aggregate_query(), [
            QueryResult(rows=None, count=0, total=0.0),
            QueryResult(rows=None, count=0, total=0.0),
        ])
        assert merged.count == 0
        assert merged.total == 0.0
        assert merged.minimum is None
        assert merged.maximum is None

    def test_rows_concatenate_in_order(self):
        query = _selective_query()
        merged = merge_partials(query, [
            QueryResult(rows=[b"a", b"b"], count=2),
            QueryResult(rows=[], count=0),
            QueryResult(rows=[b"c"], count=1),
        ])
        assert merged.rows == [b"a", b"b", b"c"]
        assert merged.count == 3


class TestDistributedExecution:
    @pytest.fixture(scope="class")
    def deployment(self):
        return DistributedScanDeployment(
            n_nodes=4, n_rows=2_000, n_shards=8, port=9800)

    def test_pushdown_equals_pull_equals_truth(self, deployment):
        for query in (_selective_query(), _aggregate_query(),
                      _wide_query()):
            push = run_distributed_scan(deployment, query,
                                        plan="pushdown")
            pull = run_distributed_scan(deployment, query,
                                        plan="pull")
            assert _exact(push["result"], pull["result"])
            truth = query.evaluate(deployment.table_bytes,
                                   deployment.schema)
            assert push["result"].matches(truth)

    def test_identity_holds_on_one_node(self):
        deployment = DistributedScanDeployment(
            n_nodes=1, n_rows=1_000, n_shards=4, port=9810)
        query = _aggregate_query()
        push = run_distributed_scan(deployment, query,
                                    plan="pushdown")
        pull = run_distributed_scan(deployment, query, plan="pull")
        assert _exact(push["result"], pull["result"])

    def test_auto_plan_matches_forced_plans(self, deployment):
        query = _selective_query()
        auto = run_distributed_scan(deployment, query)
        push = run_distributed_scan(deployment, query,
                                    plan="pushdown")
        assert _exact(auto["result"], push["result"])

    def test_pushdown_moves_fewer_bytes(self, deployment):
        query = _aggregate_query()
        push = run_distributed_scan(deployment, query,
                                    plan="pushdown")
        pull = run_distributed_scan(deployment, query, plan="pull")
        assert push["bytes_received"] < pull["bytes_received"] / 10
        assert push["host_busy_s"] < pull["host_busy_s"]

    def test_scans_leave_no_requests_or_sprocs_behind(self):
        deployment = DistributedScanDeployment(
            n_nodes=2, n_rows=600, n_shards=4, port=9870)
        deployment.load()
        coordinator = deployment.coordinator

        def footprint():
            return (len(coordinator.requests),
                    len(coordinator.request_meta),
                    [node.runtime.compute.sproc_names()
                     for node in deployment.cluster.nodes])

        before = footprint()
        plans = ["pull", "pushdown", None, "pushdown", "pull"] * 2
        for plan, query in zip(plans, [_selective_query(),
                                       _aggregate_query()] * 5):
            scan = run_distributed_scan(deployment, query, plan=plan)
            assert scan["result"].matches(query.evaluate(
                deployment.table_bytes, deployment.schema))
            assert footprint() == before

    def test_a_scan_does_not_remember_how_many_ran_before_it(self):
        """Scan ids are the deployment's and four digits wide on the
        wire: the first scan on a fresh deployment costs what the
        first scan on any deployment costs, however many scans this
        process has already run (a process-global id gained a digit
        and, with it, bytes in every sub-query)."""
        def fresh():
            return DistributedScanDeployment(
                n_nodes=2, n_rows=600, n_shards=4, port=9880)

        query = _aggregate_query()
        seasoned = fresh()
        first, *_rest = [run_distributed_scan(seasoned, query,
                                              plan="pushdown")
                         for _ in range(10)]
        newcomer = fresh()
        again = run_distributed_scan(newcomer, query, plan="pushdown")
        assert again["elapsed_s"] == first["elapsed_s"]
        assert again["bytes_received"] == first["bytes_received"]
        assert _exact(again["result"], first["result"])
        eleventh = seasoned.register_scan_sprocs(query)
        second = newcomer.register_scan_sprocs(query)
        assert eleventh[0] == "scan0011_s0"
        assert second[0] == "scan0002_s0"

    def test_unknown_plan_rejected(self, deployment):
        with pytest.raises(ValueError):
            run_distributed_scan(deployment, _selective_query(),
                                 plan="teleport")

    def test_bad_fanout_window_rejected(self, deployment):
        with pytest.raises(ValueError):
            run_distributed_scan(deployment, _selective_query(),
                                 fanout_window=0)

    def test_unknown_column_rejected(self, deployment):
        query = ScanQuery(predicate_column="ghost",
                          predicate=lambda value: True)
        with pytest.raises(KeyError):
            run_distributed_scan(deployment, query)

    def test_fanout_window_survives_dense_node(self):
        # Regression: one node owning more shards than Arm cores.
        # Unbounded scatter core-starves the run-to-completion
        # sprocs; the windowed scatter must complete.
        deployment = DistributedScanDeployment(
            n_nodes=1, n_rows=1_200, n_shards=12, port=9820)
        query = _selective_query()
        push = run_distributed_scan(deployment, query,
                                    plan="pushdown")
        truth = query.evaluate(deployment.table_bytes,
                               deployment.schema)
        assert push["result"].matches(truth)

    def test_oversized_partition_rejected(self):
        with pytest.raises(ValueError):
            DistributedScanDeployment(
                n_nodes=2, n_rows=50_000, n_shards=2, port=9830)


class TestParseOnceScanMany:
    """The scan shapes hostbench's ``scan_pushdown`` cycles: pushdown,
    pull and the per-record reference agree to the bit, cold and warm."""

    @staticmethod
    def _reference(deployment, query):
        return merge_partials(query, [
            reference_evaluate(query, deployment.partitions[shard],
                               deployment.schema)
            for shard in sorted(deployment.partitions)])

    @pytest.mark.parametrize("seed", [13, 7])
    def test_plans_and_reference_agree_cold_and_warm(self, seed):
        deployment = DistributedScanDeployment(
            n_nodes=2, n_rows=900, n_shards=4, seed=seed, port=9880)
        for query in (_aggregate_query(), _selective_query(),
                      _wide_query()):
            truth = self._reference(deployment, query)
            assert truth.count > 0
            # First pass parses every buffer, the second finds them
            # all remembered; neither may show in the answer.
            for _pass in ("cold", "warm"):
                for plan in ("pushdown", "pull"):
                    scan = run_distributed_scan(deployment, query,
                                                plan=plan)
                    assert _exact(scan["result"], truth)

    def test_equal_length_tables_get_their_own_answers(self):
        # Same shape, same partition sizes, different bytes: a parse
        # remembered by anything but content would answer the second
        # deployment with the first one's rows.
        query = _wide_query()
        answers = []
        for flag in (b"A", b"R"):
            deployment = DistributedScanDeployment(
                n_nodes=1, n_rows=200, n_shards=2, seed=3, port=9890)
            deployment.partitions = {
                shard: data.replace(b",N,", b"," + flag + b",")
                for shard, data in deployment.partitions.items()}
            scan = run_distributed_scan(deployment, query,
                                        plan="pushdown")
            pull = run_distributed_scan(deployment, query, plan="pull")
            assert _exact(scan["result"], pull["result"])
            assert _exact(scan["result"],
                          self._reference(deployment, query))
            answers.append(scan["result"].rows)
        assert len(answers[0]) == len(answers[1]) == 200
        assert answers[0] != answers[1]
        assert [len(row) for row in answers[0]] == [
            len(row) for row in answers[1]]


class _CountedEvictions(dict):
    """The decode cache; a hit pops and re-inserts, an eviction deletes.
    ``evicted`` lists the decode function of every evicted entry."""

    def __init__(self):
        super().__init__()
        self.evicted = []

    def __delitem__(self, key):
        self.evicted.append(key[0])
        super().__delitem__(key)


class TestScansHaveNoProcessHistory:
    """What a scan costs and answers does not depend on what this
    process decoded or generated before it (ROADMAP item 3, the scan
    slice): the decode cache and the ``_table_rows`` memo are
    representations of an input, never of a result."""

    @staticmethod
    def _history():
        deployment = DistributedScanDeployment(
            n_nodes=2, n_rows=600, n_shards=4, seed=13, port=9900)
        history = []
        for query in (_aggregate_query(), _selective_query(),
                      _wide_query()):
            for plan in ("pushdown", "pull"):
                scan = run_distributed_scan(deployment, query, plan=plan)
                result = scan["result"]
                history.append((
                    scan["elapsed_s"], scan["bytes_received"],
                    scan["host_busy_s"], scan["dpu_busy_s"],
                    result.rows, result.count, result.total,
                    result.minimum, result.maximum))
        return history

    def test_cold_warm_and_evicting_scans_are_identical(self,
                                                        monkeypatch):
        monkeypatch.setattr(buffers, "_decoded", _CountedEvictions())
        _table_rows.cache_clear()
        cold = self._history()
        assert buffers._decoded.evicted == []
        # A new deployment over equal rows: the table comes from the
        # memo and every partition's decode is already held.
        held = dict(buffers._decoded)
        warm = self._history()
        assert _table_rows.cache_info().hits >= 1
        assert all(buffers._decoded[key] is entry
                   for key, entry in held.items())
        # Room for one buffer's decode: every new decode evicts.
        monkeypatch.setattr(buffers, "_DECODE_CACHE_BYTES", max(
            entry[1] for entry in held.values()))
        buffers._decoded.clear()
        evicting = self._history()
        evicted = buffers._decoded.evicted
        assert len(evicted) >= len(evicting)
        assert buffers.column_codes.__wrapped__ in evicted
        assert cold == warm == evicting


class TestStaleRouting:
    def test_misdirected_scans_forward_and_stay_exact(self):
        stale = DistributedScanDeployment(
            n_nodes=4, n_rows=1_000, n_shards=8, port=9840,
            stale_fraction=1.0)
        fresh = DistributedScanDeployment(
            n_nodes=4, n_rows=1_000, n_shards=8, port=9850)
        query = _aggregate_query()
        misdirected = run_distributed_scan(stale, query,
                                           plan="pushdown")
        truth = run_distributed_scan(fresh, query, plan="pushdown")
        assert misdirected["forwards"] >= 1
        assert _exact(misdirected["result"], truth["result"])

    def test_unregistered_sproc_is_a_typed_error(self):
        deployment = DistributedScanDeployment(
            n_nodes=2, n_rows=400, n_shards=4, port=9860)
        deployment.load()
        shard = sorted(deployment.partitions)[0]
        env = deployment.env
        seen = {}

        def probe():
            request = deployment.coordinator.submit(
                encode_shard_scan(shard, "ghost"), shard, tag=0)
            buffer = yield request.done
            seen["ok"] = response_ok(buffer)

        env.run(until=env.process(probe()))
        assert seen["ok"] is False
