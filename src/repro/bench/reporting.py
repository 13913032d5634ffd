"""Plain-text tables for benchmark output.

Each experiment prints the same rows/series the paper's figure or
table reports; EXPERIMENTS.md quotes them from the committed
``BENCH_baseline.json``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .harness import Sweep

__all__ = ["format_table", "format_sweep", "banner"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table."""
    string_rows: List[List[str]] = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(
        header.ljust(widths[i]) for i, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in string_rows:
        lines.append("  ".join(
            cell.rjust(widths[i]) for i, cell in enumerate(row)
        ))
    return "\n".join(lines)


def format_sweep(sweep: Sweep,
                 keys: Optional[Sequence[str]] = None) -> str:
    """Render a :class:`Sweep` as a table, one column per series."""
    if not sweep.rows:
        return "(empty sweep)"
    # Union of keys across every row (not just the first), so a
    # series that starts late in a ragged sweep still gets a column;
    # rows missing it render as NaN.
    keys = list(keys) if keys else sweep.keys()
    headers = [sweep.x_label] + keys
    rows = []
    for row in sweep.rows:
        rows.append([row.x] + [row.values.get(key, float("nan"))
                               for key in keys])
    return format_table(headers, rows)


def banner(title: str) -> str:
    """A section banner for benchmark output."""
    bar = "=" * max(len(title) + 4, 40)
    return f"\n{bar}\n  {title}\n{bar}"
