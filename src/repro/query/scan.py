"""Scan queries over remote tables (the paper's pushdown use case).

A :class:`ScanQuery` declares what a DBMS compute node wants from a
table stored on a DPDPU storage server: a predicate over one column,
a projection, and optionally an aggregate.  The executor can satisfy
it two ways:

* ``pull`` — ship every table page to the compute node and evaluate
  there (the conventional plan), or
* ``pushdown`` — run filter/project/aggregate as DP kernels next to
  the data (the Section 4 composition) and ship only results.

The planner (:mod:`repro.query.planner`) picks between them from
cost estimates; the executor (:mod:`repro.query.distributed`) runs
either plan and both must return identical answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, List, Optional

from ..buffers import column_verdicts, record_column
from ..workloads.tables import TableSchema
from ..sim.stats import fold_sum

__all__ = ["ScanQuery", "QueryResult"]


@dataclass
class ScanQuery:
    """A filter/project/aggregate scan over one table."""

    #: column the predicate applies to
    predicate_column: str
    #: bytes-level test on that column's value; a pure function of the
    #: value, since a scan calls it once per distinct value
    predicate: Callable[[bytes], bool]
    #: columns to return (names); ignored when aggregating
    projection: List[str] = field(default_factory=list)
    #: optional aggregate: column name summed/min'd/max'd
    aggregate_column: Optional[str] = None
    #: planner hint: expected fraction of rows passing the predicate
    estimated_selectivity: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.estimated_selectivity <= 1.0:
            raise ValueError("selectivity must be in [0, 1]")

    def validate_against(self, schema: TableSchema) -> None:
        """Raise KeyError if the query references unknown columns."""
        schema.index_of(self.predicate_column)
        for name in self.projection:
            schema.index_of(name)
        if self.aggregate_column is not None:
            schema.index_of(self.aggregate_column)

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate_column is not None

    # -- reference evaluation (plain Python, used by tests/executor) --------

    def evaluate(self, table_bytes: bytes,
                 schema: TableSchema) -> "QueryResult":
        """Ground-truth evaluation over raw CSV bytes."""
        def column(name):
            return record_column(table_bytes, schema.index_of(name))

        passed = column_verdicts(
            table_bytes, schema.index_of(self.predicate_column), b"\n",
            b",", self.predicate)
        if self.is_aggregate:
            values = list(map(float, compress(
                column(self.aggregate_column), passed)))
            return QueryResult(
                rows=None,
                count=len(values),
                total=fold_sum(values),
                minimum=min(values) if values else None,
                maximum=max(values) if values else None,
            )
        if self.projection:
            kept = map(b",".join, compress(
                zip(*map(column, self.projection)), passed))
        else:
            kept = compress(record_column(table_bytes, None), passed)
        projected = list(kept)
        return QueryResult(rows=projected, count=len(projected))


@dataclass
class QueryResult:
    """What a scan returns: rows, or aggregate summary."""

    rows: Optional[List[bytes]]
    count: int
    total: Optional[float] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def matches(self, other: "QueryResult") -> bool:
        """Semantic equality (row order is not significant)."""
        if self.count != other.count:
            return False
        if (self.rows is None) != (other.rows is None):
            return False
        if self.rows is not None:
            return sorted(self.rows) == sorted(other.rows)
        def close(a, b):
            if a is None or b is None:
                return a == b
            return abs(a - b) < 1e-6 * max(1.0, abs(a), abs(b))
        return (close(self.total, other.total)
                and close(self.minimum, other.minimum)
                and close(self.maximum, other.maximum))
