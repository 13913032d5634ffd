"""The shared record decode: parse a buffer once, scan it many times.

``repro.buffers.split_records`` / ``split_columns`` / ``column_codes``
remember how an immutable buffer tokenises, within one byte ceiling;
the ``filter`` / ``aggregate`` / ``project`` kernels and
``ScanQuery.evaluate`` read that.  A predicate on a column runs once
per distinct value on every scan, ``extract`` once per record.  The old
per-record bodies live in :mod:`scan_reference` and are the oracle
here.
"""

from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.buffers as buffers
from repro.buffers import (RealBuffer, column_codes, record_column,
                           split_columns, split_records)
from repro.core.kernels import BUILTIN_KERNELS
from repro.query import QueryResult, ScanQuery
from repro.query.distributed import _decode_pushdown
from repro.workloads.tables import Column, TableGenerator, TableSchema

from scan_reference import (on_column, reference_aggregate,
                            reference_evaluate, reference_filter,
                            reference_project)


def clear_decode():
    buffers._decoded.clear()


def charged() -> int:
    return sum(entry[1] for entry in buffers._decoded.values())


def run(name, data, **params):
    result = BUILTIN_KERNELS[name].run(RealBuffer(data), params)
    return result.buffer.data, result.meta


def outcome(call):
    """The call's value, or "error" for the two ways a scan over a
    malformed table fails (a short row was an IndexError, is a
    ValueError; an unparsable number is a ValueError in both)."""
    try:
        return call()
    except (IndexError, ValueError):
        return "error"


def copy_of(data: bytes) -> bytes:
    """An equal ``bytes`` that is not the same object."""
    return bytes(bytearray(data))


# -- generated tables ---------------------------------------------------------

FIELD = st.sampled_from([b"", b"0", b"7", b"12", b"3.5", b"A", b"xy z"])


@st.composite
def tables(draw):
    """(bytes, width) — width is None for a ragged table."""
    n_rows = draw(st.integers(0, 60))
    width = draw(st.one_of(st.none(), st.integers(1, 9)))
    if width is None:
        rows = draw(st.lists(st.lists(FIELD, min_size=1, max_size=9),
                             min_size=n_rows, max_size=n_rows))
    else:
        rows = draw(st.lists(
            st.lists(FIELD, min_size=width, max_size=width),
            min_size=n_rows, max_size=n_rows))
    data = b"\n".join(b",".join(row) for row in rows)
    if draw(st.booleans()):
        data += b"\n"
    return data, width


def is_low(value: bytes) -> bool:
    return value < b"4"


class TestAgainstPerRecordOracle:
    @settings(max_examples=100, deadline=None)
    @given(tables(), st.integers(0, 9))
    def test_filter_on_a_column(self, table, column):
        data, _width = table
        expected = outcome(lambda: reference_filter(
            data, on_column(column, is_low)))
        for buffer in (data, copy_of(data)):
            assert outcome(lambda: run(
                "filter", buffer, column=column,
                predicate=is_low)) == expected

    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_filter_on_the_whole_record(self, table):
        data, _width = table
        keep = lambda record: len(record) % 3 != 0  # noqa: E731
        for buffer in (data, copy_of(data)):
            assert (run("filter", buffer, predicate=keep)
                    == reference_filter(data, keep))

    @settings(max_examples=100, deadline=None)
    @given(tables(), st.one_of(st.none(), st.integers(0, 9)))
    def test_aggregate(self, table, column):
        data, _width = table
        old = len if column is None else on_column(column, len)
        expected = outcome(lambda: reference_aggregate(data, old))
        for buffer in (data, copy_of(data)):
            new = outcome(lambda: run("aggregate", buffer,
                                      column=column, extract=len))
            assert new == "error" if expected == "error" else (
                new == (repr(expected).encode(), expected))

    @settings(max_examples=100, deadline=None)
    @given(tables(), st.lists(st.integers(0, 9), max_size=4))
    def test_project_skips_what_a_record_lacks(self, table, picks):
        data, _width = table
        for buffer in (data, copy_of(data)):
            assert (run("project", buffer, columns=picks)
                    == reference_project(data, picks))

    @settings(max_examples=120, deadline=None)
    @given(tables(), st.data())
    def test_evaluate(self, table, draw):
        data, width = table
        names = [f"c{i}" for i in range(width or 9)]
        schema = TableSchema([Column(name, None) for name in names])
        shape = draw.draw(st.sampled_from(
            ["rows", "projection", "aggregate"]))
        query = ScanQuery(
            predicate_column=draw.draw(st.sampled_from(names)),
            predicate=is_low,
            projection=(draw.draw(st.lists(st.sampled_from(names),
                                           min_size=1, max_size=3))
                        if shape == "projection" else []),
            aggregate_column=(draw.draw(st.sampled_from(names))
                              if shape == "aggregate" else None))
        expected = outcome(
            lambda: reference_evaluate(query, data, schema))
        for buffer in (data, copy_of(data)):
            new = outcome(lambda: query.evaluate(buffer, schema))
            if width is None:
                # Ragged: the decode refuses a table where any record
                # lacks a queried column; the old loop only tripped
                # over the short rows it happened to touch.
                assert new == expected or new == "error"
            else:
                assert new == expected


# -- the predicate is not memoised -------------------------------------------


class TestPredicateRunsOnEveryScan:
    TABLE = TableGenerator(seed=5).rows(300)
    QUANTITY = TableGenerator().schema.index_of("quantity")

    def _expected_calls(self):
        return [row.split(b",")[self.QUANTITY]
                for row in self.TABLE.splitlines()]

    def _three_scans(self, scan, by_value=False):
        """``by_value``: a predicate sees each distinct value once per
        scan, in first-occurrence order, and the column's codes are a
        third decode entry."""
        expected = self._expected_calls()
        if by_value:
            expected = list(dict.fromkeys(expected))
        clear_decode()
        seen, held = [], []
        for buffer in (self.TABLE, copy_of(self.TABLE), self.TABLE):
            calls = []
            seen.append((scan(buffer, calls), calls))
            held.append({key: id(entry)
                         for key, entry in buffers._decoded.items()})
        # One parse serves all three scans; the predicate served each.
        assert (len(held[0]) == 2 + by_value
                and held[0] == held[1] == held[2])
        for result, calls in seen:
            assert calls == expected
            assert result == seen[0][0]

    @staticmethod
    def _one_predicate():
        """``(predicate, into)``: one predicate object for all three
        scans, so a verdict kept per predicate would show; it records
        its calls in the list last handed to ``into``."""
        sink = [[]]

        def predicate(value):
            sink[0].append(value)
            return int(value) >= 45

        def into(calls):
            sink[0] = calls
        return predicate, into

    def test_filter(self):
        predicate, into = self._one_predicate()

        def scan(buffer, calls):
            into(calls)
            return run("filter", buffer, column=self.QUANTITY,
                       predicate=predicate)
        self._three_scans(scan, by_value=True)

    def test_aggregate(self):
        def scan(buffer, calls):
            def extract(value):
                calls.append(value)
                return int(value)
            return run("aggregate", buffer, column=self.QUANTITY,
                       extract=extract)
        self._three_scans(scan)

    @pytest.mark.parametrize("shape", [
        {}, {"projection": ["orderkey", "shipmode"]},
        {"aggregate_column": "extendedprice"}])
    def test_evaluate(self, shape):
        schema = TableGenerator().schema
        predicate, into = self._one_predicate()
        query = ScanQuery("quantity", predicate, **shape)

        def scan(buffer, calls):
            into(calls)
            return query.evaluate(buffer, schema)
        self._three_scans(scan, by_value=True)


# -- one verdict per distinct value equals one per record ---------------------

#: what a predicate may return: bools and truthy or falsy non-bools
VERDICT = st.sampled_from([True, False, 0, 1, 2, b"", b"x", None, (),
                           (0,)])


@st.composite
def coded_tables(draw):
    """(bytes, width, values): 1-60 distinct numeric values, blank
    lines, and ragged records when ``width`` is None."""
    values = [b"%d" % (7 * i) for i in range(draw(st.integers(1, 60)))]
    width = draw(st.one_of(st.none(), st.integers(1, 4)))
    field = st.sampled_from(values)
    record = (st.lists(field, min_size=1, max_size=4) if width is None
              else st.lists(field, min_size=width, max_size=width))
    rows = draw(st.lists(st.one_of(record.map(b",".join), st.just(b"")),
                         max_size=40))
    return b"\n".join(rows) + draw(st.sampled_from([b"", b"\n"])), \
        width, values


@st.composite
def judges(draw, values):
    """``(make, bad)``: one predicate over ``values``, a drawn verdict
    per value, raising at the value ``bad`` (or none).  Each ``make()``
    is a fresh copy and the list of values that copy is called with."""
    verdicts = dict(zip(values, draw(st.lists(
        VERDICT, min_size=len(values), max_size=len(values)))))
    bad = draw(st.one_of(st.none(), st.sampled_from(values)))

    def make():
        calls = []

        def predicate(value):
            calls.append(value)
            if value == bad:
                raise ArithmeticError(f"cannot judge {value!r}")
            return verdicts[value]
        return predicate, calls
    return make, bad


def raised(call):
    """The call's value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


def per_row_filter(data, column, predicate):
    """The ``filter`` kernel with one ``predicate`` call per record."""
    verdicts = list(map(predicate, record_column(data, column)))
    records = split_records(data, b"\n")
    kept = list(compress(records, verdicts))
    return (b"\n".join(kept) + b"\n" if kept else b"",
            {"in": len(records), "out": len(kept),
             "selectivity": len(kept) / len(records) if records else 0.0})


def per_row_evaluate(query, data, schema):
    """``ScanQuery.evaluate`` with one ``predicate`` call per record."""
    def column(name):
        return record_column(data, schema.index_of(name))

    verdicts = list(map(query.predicate, column(query.predicate_column)))
    if query.is_aggregate:
        values = list(map(float, compress(column(query.aggregate_column),
                                          verdicts)))
        return QueryResult(
            rows=None, count=len(values), total=sum(values),
            minimum=min(values) if values else None,
            maximum=max(values) if values else None)
    if query.projection:
        rows = list(map(b",".join, compress(
            zip(*map(column, query.projection)), verdicts)))
    else:
        rows = list(compress(split_records(data, b"\n"), verdicts))
    return QueryResult(rows=rows, count=len(rows))


class TestVerdictsByValueEqualPerRow:
    @pytest.mark.parametrize("values, form", [(256, bytes), (257, tuple)])
    def test_codes_past_one_byte(self, values, form):
        data = b"".join(b"%d,%d\n" % (i, i * 7 % values)
                        for i in range(3 * values))
        distinct, codes = column_codes(data, 1, b"\n", b",")
        assert len(distinct) == values and type(codes) is form
        column = record_column(data, 1)
        assert [distinct[code] for code in codes] == list(column)

        def predicate(value):
            return int(value) % 3 == 0
        assert (run("filter", data, column=1, predicate=predicate)
                == per_row_filter(data, 1, predicate))

    @staticmethod
    def _each_value_once(calls, data, column, bad):
        """Called with the column's distinct values in first-occurrence
        order, up to the one that raises; never when the decode
        raises."""
        try:
            distinct = list(dict.fromkeys(record_column(data, column)))
        except ValueError:
            distinct = []
        if bad in distinct:
            distinct = distinct[:distinct.index(bad) + 1]
        assert calls == distinct

    @settings(max_examples=150, deadline=None)
    @given(coded_tables(), st.integers(0, 4), st.data())
    def test_filter(self, table, column, draw):
        data, _width, values = table
        make, bad = draw.draw(judges(values))
        expected = raised(lambda: per_row_filter(data, column, make()[0]))
        clear_decode()
        for buffer in (data, copy_of(data), data):
            predicate, calls = make()
            assert raised(lambda: run("filter", buffer, column=column,
                                      predicate=predicate)) == expected
            self._each_value_once(calls, data, column, bad)

    @settings(max_examples=150, deadline=None)
    @given(coded_tables(), st.data())
    def test_evaluate(self, table, draw):
        data, width, values = table
        names = [f"c{i}" for i in range(width or 4)]
        schema = TableSchema([Column(name, None) for name in names])
        shape = draw.draw(st.sampled_from(
            ["rows", "projection", "aggregate"]))
        fields = dict(
            predicate_column=draw.draw(st.sampled_from(names)),
            projection=(draw.draw(st.lists(st.sampled_from(names),
                                           min_size=1, max_size=3))
                        if shape == "projection" else []),
            aggregate_column=(draw.draw(st.sampled_from(names))
                              if shape == "aggregate" else None))
        where = names.index(fields["predicate_column"])
        make, bad = draw.draw(judges(values))
        expected = raised(lambda: per_row_evaluate(
            ScanQuery(predicate=make()[0], **fields), data, schema))
        clear_decode()
        for buffer in (data, copy_of(data), data):
            predicate, calls = make()
            query = ScanQuery(predicate=predicate, **fields)
            assert raised(lambda: query.evaluate(buffer,
                                                 schema)) == expected
            self._each_value_once(calls, data, where, bad)


# -- what is remembered cannot be changed by a reader -------------------------


class TestDecodeIsImmutableAndBounded:
    def test_decoded_forms_are_tuples(self):
        data = b"1,a\n2,b\n"
        assert split_records(data, b"\n") == (b"1,a", b"2,b")
        columns, width = split_columns(data, b"\n", b",")
        assert columns == ((b"1", b"2"), (b"a", b"b")) and width == 2
        assert record_column(data, 1) == (b"a", b"b")
        assert record_column(data, None) is split_records(data, b"\n")

    def test_one_scans_rows_are_not_the_next_scans(self):
        table = TableGenerator(seed=5).rows(50)
        schema = TableGenerator().schema
        query = ScanQuery("quantity", lambda value: True)
        first = query.evaluate(table, schema)
        first.rows.append(b"intruder")
        first.rows[0] = b"overwritten"
        again = query.evaluate(table, schema)
        assert again.rows == table.splitlines() and again.count == 50
        decoded = _decode_pushdown(RealBuffer(table), query)
        decoded.rows.clear()
        assert _decode_pushdown(RealBuffer(table),
                                query).rows == table.splitlines()

    def test_cache_stays_under_its_byte_ceiling(self):
        """Twice the ceiling's worth of distinct 50 KB buffers, the
        worst case docs/PERFORMANCE.md bounds: what the decode holds
        is charged by size and never passes the ceiling; a buffer read
        again stays, the least recently used goes."""
        clear_decode()
        ceiling = buffers._DECODE_CACHE_BYTES
        table = TableGenerator(seed=13).rows(1_450)
        assert 48_000 < len(table) < 50_000

        def columns_key(index):
            return (split_columns.__wrapped__, b"%d,x\n" % index + table,
                    b"\n", b",")

        fed = index = 0
        while fed <= 2 * ceiling:
            data = b"%d,x\n" % index + table
            before = charged()
            assert run("filter", data, column=1,
                       predicate=lambda v: v == b"x") == (
                b"%d,x\n" % index,
                {"in": 1_451, "out": 1, "selectivity": 1 / 1_451})
            if index == 0:
                fed_per_buffer = charged() - before
            fed += fed_per_buffer
            index += 1
            assert charged() <= ceiling
            record_column(b"0,x\n" + table, 0)  # buffer 0 is read again
        newest = columns_key(index - 1)
        assert list(buffers._decoded)[-3:-1] == [newest, (
            column_codes.__wrapped__, newest[1], 1, b"\n", b",")]
        assert columns_key(0) in buffers._decoded
        assert columns_key(1) not in buffers._decoded
        held = buffers._decoded[newest][0]
        assert split_columns(copy_of(newest[1]), b"\n", b",") is held
        assert 2 < len(buffers._decoded) < 2 * index

    def test_equal_fields_of_a_buffer_are_one_object(self):
        table = TableGenerator(seed=13).rows(48_000)
        columns, width = split_columns(table, b"\n", b",")
        assert width == len(columns) == 7
        for column in columns:
            assert len({id(value) for value in column}) == len(set(column))
        returnflag = columns[TableGenerator().schema.index_of(
            "returnflag")]
        assert len({id(value) for value in returnflag}) == 3
        ragged, _width = split_columns(
            TestRecordShapes.RAGGED + b"5,bob\n", b"\n", b",")
        assert ragged[1][1] is ragged[1][4] and ragged[2][1] is None


# -- malformed and unusual input ---------------------------------------------


class TestRecordShapes:
    RAGGED = b"1,alice,90\n2,bob\n3\n4,dave,31\n"

    def test_filter_on_a_missing_column_names_the_record(self):
        with pytest.raises(ValueError, match=r"record 1 has 2 fields"):
            run("filter", self.RAGGED, column=2,
                predicate=lambda value: True)
        with pytest.raises(ValueError, match=r"record 2 has 1 fields"):
            run("aggregate", self.RAGGED, column=1, extract=len)
        with pytest.raises(ValueError, match=r"record 0 has 3 fields"):
            run("filter", b"1,alice,90\n", column=3,
                predicate=lambda value: True)
        with pytest.raises(ValueError, match=r"no column -1"):
            run("filter", self.RAGGED, column=-1,
                predicate=lambda value: True)

    def test_a_column_every_ragged_record_has_still_filters(self):
        out, meta = run("filter", self.RAGGED, column=0,
                        predicate=lambda value: int(value) % 2 == 0)
        assert out == b"2,bob\n4,dave,31\n" and meta["in"] == 4

    def test_project_keeps_the_fields_a_short_record_has(self):
        out, meta = run("project", self.RAGGED, columns=[2, 0, 1])
        assert out == b"90,1,alice\n2,bob\n3\n31,4,dave\n"
        assert meta == {"records": 4}
        assert run("project", self.RAGGED, columns=[5])[0] == b"\n" * 4

    def test_project_on_a_negative_column_names_the_record(self):
        # Python indexing would read the last field; no record has it.
        for data, fields in ((b"1,a\n2,b\n", 2), (self.RAGGED, 3)):
            with pytest.raises(ValueError, match=(
                    rf"record 0 has {fields} fields; no column -1")):
                run("project", data, columns=[0, -1])
        assert run("project", b"", columns=[-1]) == (b"", {"records": 0})

    def test_empty_buffer(self):
        assert run("filter", b"", column=3,
                   predicate=lambda value: True) == (
            b"", {"in": 0, "out": 0, "selectivity": 0.0})
        assert run("aggregate", b"", column=3, extract=int)[1] == {
            "count": 0, "sum": 0, "min": None, "max": None}
        assert run("project", b"", columns=[1]) == (
            b"", {"records": 0})

    def test_no_trailing_delimiter_and_blank_records(self):
        data = b"\n\n1,a\n\n2,b\n\n\n3,c"
        assert record_column(data, None) == (b"1,a", b"2,b", b"3,c")
        assert run("filter", data, column=1,
                   predicate=lambda v: v != b"b")[0] == b"1,a\n3,c\n"
        assert run("project", data, columns=[1])[0] == b"a\nb\nc\n"

    def test_custom_delimiter_and_separator(self):
        data = b"1|a;2|b;3|c;"
        params = {"delimiter": b";", "separator": b"|"}
        assert run("filter", data, column=0,
                   predicate=lambda v: v != b"2",
                   **params)[0] == b"1|a;3|c;"
        assert run("aggregate", data, column=0, extract=int,
                   **params)[1]["sum"] == 6
        assert run("project", data, columns=[1, 0],
                   **params)[0] == b"a|1;b|2;c|3;"
        # The same bytes under the default framing are one record.
        assert run("project", data, columns=[0])[0] == data + b"\n"

    def test_a_field_may_end_with_part_of_the_separator(self):
        # Records split one by one: b"xa" + b"aa" + b"y" must not
        # re-tokenise as b"x", b"ay".
        params = {"separator": b"aa"}
        for data in (b"xa\ny\n", b"xaaa\nyaaz\n", b"aaa\naaaa\n",
                     b"1aaxa\n2aay\n3aaaa\n"):
            for columns in ([0], [1, 0], [0, 1, 2]):
                assert (run("project", data, columns=columns, **params)
                        == reference_project(data, columns, **params))
            assert run("filter", data, column=0, **params,
                       predicate=lambda value: value.endswith(b"a")) == (
                reference_filter(data, on_column(
                    0, lambda value: value.endswith(b"a"), b"aa")))

    def test_whole_record_callables_need_no_column(self):
        generator = TableGenerator(seed=9)
        table = generator.rows(200)
        quantity = generator.schema.index_of("quantity")
        price = generator.schema.index_of("extendedprice")
        by_record = run("filter", table, predicate=(
            lambda record: int(record.split(b",")[quantity]) >= 45))
        by_column = run(
            "filter", table,
            column=quantity, predicate=lambda value: int(value) >= 45)
        assert by_record == by_column and 0 < by_record[1]["out"] < 200
        assert (run("aggregate", table, extract=(
            lambda record: float(record.split(b",")[price])))
            == run("aggregate", table, extract=float, column=price))
