"""Synthetic relational tables for pushdown workloads.

The paper's predicate-pushdown scenario needs tables on disaggregated
storage.  This generator produces deterministic CSV tables from a
declarative schema (TPC-H-lineitem-flavoured preset included), split
into storage pages so they can be written through the Storage Engine
and scanned by the ``filter``/``aggregate``/``project`` DP kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Sequence

__all__ = ["Column", "TableSchema", "TableGenerator", "LINEITEM_ISH"]


@dataclass(frozen=True)
class Column:
    """One column: a name and a value generator."""

    name: str
    generate: Callable[[random.Random, int], str]


def _int_column(name: str, low: int, high: int) -> Column:
    return Column(name, lambda rng, row: str(rng.randint(low, high)))


def _choice_column(name: str, choices: Sequence[str]) -> Column:
    return Column(name, lambda rng, row: rng.choice(list(choices)))


def _serial_column(name: str) -> Column:
    return Column(name, lambda rng, row: str(row))


def _decimal_column(name: str, low: float, high: float) -> Column:
    return Column(
        name,
        lambda rng, row: f"{rng.uniform(low, high):.2f}",
    )


class TableSchema:
    """An ordered set of columns."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise ValueError("schema needs at least one column")
        names = [column.name for column in columns]
        if len(names) != len(set(names)):
            raise ValueError("duplicate column names")
        self.columns = list(columns)

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def index_of(self, name: str) -> int:
        """Positional index of the named column."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise KeyError(f"no column named {name!r}")


#: A lineitem-flavoured schema: the classic pushdown target.
LINEITEM_ISH = TableSchema([
    _serial_column("orderkey"),
    _int_column("partkey", 1, 20_000),
    _choice_column("returnflag", ("A", "N", "R")),
    _int_column("quantity", 1, 50),
    _decimal_column("extendedprice", 1.0, 100_000.0),
    _decimal_column("discount", 0.0, 0.1),
    _choice_column("shipmode", ("AIR", "SHIP", "TRUCK", "RAIL",
                                "MAIL")),
])


def _row(columns: Sequence[Column], rng: random.Random,
         row_index: int) -> bytes:
    return ",".join(column.generate(rng, row_index)
                    for column in columns).encode()


@lru_cache(maxsize=4)
def _table_rows(columns: tuple, seed: int, count: int) -> bytes:
    # Deployments over one (columns, seed, count) share the table:
    # the bytes cannot be mutated.
    rng = random.Random(seed)
    lines = [_row(columns, rng, index) for index in range(count)]
    return b"\n".join(lines) + (b"\n" if lines else b"")


class TableGenerator:
    """Deterministic CSV rows from a schema."""

    def __init__(self, seed: int = 77):
        self.schema = LINEITEM_ISH
        self.seed = seed

    def rows(self, count: int) -> bytes:
        """``count`` newline-separated CSV rows."""
        if count < 0:
            raise ValueError("negative row count")
        return _table_rows(tuple(self.schema.columns), self.seed, count)
