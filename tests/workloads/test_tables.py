"""Relational table generator tests + pushdown integration."""

import pytest

from repro.core.kernels import BUILTIN_KERNELS
from repro.buffers import RealBuffer
from repro.workloads.tables import (
    Column,
    LINEITEM_ISH,
    TableGenerator,
    TableSchema,
)


class TestSchema:
    def test_lineitem_columns(self):
        assert LINEITEM_ISH.column_names[0] == "orderkey"
        assert "quantity" in LINEITEM_ISH.column_names

    def test_index_of(self):
        assert LINEITEM_ISH.index_of("orderkey") == 0
        with pytest.raises(KeyError):
            LINEITEM_ISH.index_of("ghost")

    def test_validation(self):
        with pytest.raises(ValueError):
            TableSchema([])
        column = Column("x", lambda rng, row: "1")
        with pytest.raises(ValueError):
            TableSchema([column, column])


class TestGeneration:
    def test_row_count(self):
        data = TableGenerator().rows(100)
        assert data.count(b"\n") == 100

    def test_deterministic(self):
        assert TableGenerator(seed=5).rows(50) == \
            TableGenerator(seed=5).rows(50)

    def test_column_arity(self):
        data = TableGenerator().rows(10)
        for line in data.splitlines():
            assert len(line.split(b",")) == len(LINEITEM_ISH.columns)

    def test_zero_rows(self):
        assert TableGenerator().rows(0) == b""


class TestTableMemo:
    def test_equal_generators_share_one_table(self):
        first = TableGenerator(seed=21).rows(120)
        assert TableGenerator(seed=21).rows(120) is first
        assert TableGenerator(seed=22).rows(120) != first
        assert TableGenerator(seed=21).rows(119) == first[
            :first.rindex(b"\n", 0, -1) + 1]

    def test_schema_is_part_of_the_key(self):
        narrow = TableSchema(LINEITEM_ISH.columns[:2])
        assert (TableGenerator(narrow, seed=21).rows(5)
                != TableGenerator(seed=21).rows(5))

    def test_a_schema_edited_after_a_build_gets_a_new_table(self):
        schema = TableSchema(LINEITEM_ISH.columns[:3])
        before = TableGenerator(schema, seed=21).rows(5)
        schema.columns.pop()
        after = TableGenerator(schema, seed=21).rows(5)
        assert after != before
        assert all(len(line.split(b",")) == 2
                   for line in after.splitlines())

    def test_memo_is_bounded(self):
        from repro.workloads.tables import _table_rows
        for seed in range(10):
            TableGenerator(seed=seed).rows(3)
        assert _table_rows.cache_info().currsize <= 4
        assert TableGenerator(seed=0).rows(3) == TableGenerator(
            seed=0).rows(3)


class TestPushdownIntegration:
    def test_filter_kernel_with_column_predicate(self):
        generator = TableGenerator(seed=9)
        table = RealBuffer(generator.rows(500))
        def predicate(record):
            return int(record.split(b",")[3]) >= 45

        result = BUILTIN_KERNELS["filter"].run(
            table, {"predicate": predicate}
        )
        assert 0 < result.meta["out"] < result.meta["in"]
        for line in result.buffer.data.splitlines():
            assert int(line.split(b",")[3]) >= 45

    def test_aggregate_kernel_with_extractor(self):
        generator = TableGenerator(seed=9)
        table = RealBuffer(generator.rows(300))
        def extract(record):
            return int(record.split(b",")[3])

        result = BUILTIN_KERNELS["aggregate"].run(
            table, {"extract": extract}
        )
        assert result.meta["count"] == 300
        assert 1 <= result.meta["min"] <= result.meta["max"] <= 50

    def test_project_kernel_on_table(self):
        generator = TableGenerator(seed=9)
        table = RealBuffer(generator.rows(50))
        index = LINEITEM_ISH.index_of("returnflag")
        result = BUILTIN_KERNELS["project"].run(
            table, {"columns": [index]}
        )
        values = set(result.buffer.data.split())
        assert values <= {b"A", b"N", b"R"}
