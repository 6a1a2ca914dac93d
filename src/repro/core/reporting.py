"""Plain-text rendering of tables and histograms.

Benchmarks print each reproduced table/figure through these helpers so
the output reads like the paper's artifacts.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: Optional[str] = None
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_histogram(
    bins: Sequence[Tuple[str, int]], title: Optional[str] = None, width: int = 40
) -> str:
    """Render labelled counts as a horizontal ASCII bar chart."""
    lines: List[str] = []
    if title:
        lines.append(title)
    top = max((count for _, count in bins), default=0)
    label_width = max((len(label) for label, _ in bins), default=0)
    for label, count in bins:
        bar = "#" * (int(count / top * width) if top else 0)
        lines.append(f"{label.ljust(label_width)}  {str(count).rjust(6)}  {bar}")
    return "\n".join(lines)


def percent(value: float, digits: int = 1) -> str:
    """Format a ratio as a percentage string."""
    return f"{value * 100:.{digits}f}%"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    return str(value)
