"""Plain-text reporting helpers: ASCII tables, CSV series and summary ratios.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers keep the formatting in one place so benches, examples and the
EXPERIMENTS.md generation all agree.
"""

from __future__ import annotations

import io
import math
from typing import Dict, Iterable, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "to_csv",
    "geometric_mean",
    "arithmetic_mean",
    "improvement_ratios",
    "format_series",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.4g}",
    title: Optional[str] = None,
) -> str:
    """Render rows as a fixed-width ASCII table."""

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write(line(headers) + "\n")
    out.write(line(["-" * w for w in widths]) + "\n")
    for row in rendered:
        out.write(line(row) + "\n")
    return out.getvalue()


def to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as a CSV string (no quoting needed for our data)."""
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (zero/negative values are floored)."""
    values = [max(v, 1e-300) for v in values]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return sum(values) / len(values)


def improvement_ratios(
    ours: Mapping[str, float], baseline: Mapping[str, float]
) -> Dict[str, float]:
    """Per-benchmark improvement ratio ``ours / baseline`` over shared keys."""
    ratios: Dict[str, float] = {}
    for key, value in ours.items():
        if key in baseline and baseline[key] > 0:
            ratios[key] = value / baseline[key]
    return ratios


def format_series(name: str, xs: Sequence[object], ys: Sequence[float]) -> str:
    """Format a named (x, y) series the way the figure benches print them."""
    pairs = ", ".join(f"{x}: {y:.4g}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
