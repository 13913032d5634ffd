"""Plain-text tables for benchmark output.

Each experiment prints the same rows/series the paper's figure or
table reports; EXPERIMENTS.md quotes them from the committed
``BENCH_baseline.json``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table", "banner"]


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


def banner(title: str) -> str:
    """A section banner for benchmark output."""
    bar = "=" * max(len(title) + 4, 40)
    return f"\n{bar}\n  {title}\n{bar}"
