"""The per-record scan code the shared decode replaced, kept as oracles.

These are the ``filter`` / ``aggregate`` / ``project`` kernel bodies
and ``ScanQuery.evaluate`` as they stood before
:func:`repro.buffers.split_columns`: every call splits the buffer into
records and every record into fields again, nothing is remembered.
``predicate`` / ``extract`` here take a whole record (the old kernel
contract), so a column test goes through :func:`on_column`.
"""

from repro.query import QueryResult


def on_column(index, test, separator=b","):
    """The wrapper the sprocs used to build: split the row, test one
    field (IndexError on a short row, as it was)."""
    return lambda record: test(record.split(separator)[index])


def _records(data, delimiter):
    return [r for r in data.split(delimiter) if r]


def reference_filter(data, predicate, delimiter=b"\n"):
    """(output bytes, meta) of the old ``filter`` body."""
    records = _records(data, delimiter)
    kept = [r for r in records if predicate(r)]
    out = delimiter.join(kept) + delimiter if kept else b""
    selectivity = len(kept) / len(records) if records else 0.0
    return out, {"in": len(records), "out": len(kept),
                 "selectivity": selectivity}


def reference_aggregate(data, extract, delimiter=b"\n"):
    """The old ``aggregate`` summary."""
    values = [extract(record) for record in _records(data, delimiter)]
    return {"count": len(values), "sum": sum(values),
            "min": min(values) if values else None,
            "max": max(values) if values else None}


def reference_project(data, columns, delimiter=b"\n", separator=b","):
    """(output bytes, meta) of the old ``project`` body."""
    projected = []
    for record in _records(data, delimiter):
        fields = record.split(separator)
        projected.append(separator.join(
            fields[c] for c in columns if c < len(fields)))
    out = delimiter.join(projected) + delimiter if projected else b""
    return out, {"records": len(projected)}


def reference_evaluate(query, table_bytes, schema):
    """The old ``ScanQuery.evaluate``."""
    predicate_index = schema.index_of(query.predicate_column)
    rows = [row for row in table_bytes.split(b"\n") if row]
    kept = [row for row in rows
            if query.predicate(row.split(b",")[predicate_index])]
    if query.is_aggregate:
        aggregate_index = schema.index_of(query.aggregate_column)
        values = [float(row.split(b",")[aggregate_index])
                  for row in kept]
        return QueryResult(
            rows=None, count=len(values), total=sum(values),
            minimum=min(values) if values else None,
            maximum=max(values) if values else None)
    if query.projection:
        indices = [schema.index_of(name) for name in query.projection]
        kept = [b",".join(row.split(b",")[i] for i in indices)
                for row in kept]
    return QueryResult(rows=kept, count=len(kept))
