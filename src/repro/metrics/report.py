"""Plain-text table and CDF rendering for benchmark output.

The benchmark harness prints the same rows the paper's tables report;
these helpers keep the formatting consistent across every table and
provide a terminal-friendly CDF for the figure benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.latency import percentile

__all__ = ["render_table", "render_cdf", "cdf_points", "render_series"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render an aligned plain-text table.

    Floats are formatted with ``float_format``; everything else via
    ``str``.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def cdf_points(samples: Sequence[float], quantiles: Optional[Sequence[float]] = None) -> List[Tuple[float, float]]:
    """``(value, cumulative_probability)`` pairs for a sample.

    With ``quantiles`` given, evaluates only those probabilities (useful
    for compact series comparison); otherwise returns the full empirical
    CDF.
    """
    if not samples:
        return []
    ordered = sorted(map(float, samples))
    if quantiles is not None:
        return [(percentile(ordered, 100.0 * q), q) for q in quantiles]
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def render_cdf(
    named_samples: Dict[str, Sequence[float]],
    quantiles: Sequence[float] = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999),
    value_label: str = "latency (us)",
) -> str:
    """A compact multi-series CDF table (rows = quantiles, cols = series)."""
    names = list(named_samples)
    headers = ["quantile"] + names
    ordered = {name: sorted(map(float, named_samples[name])) for name in names}
    rows: List[List[object]] = []
    for q in quantiles:
        row: List[object] = [f"p{100 * q:g}"]
        for name in names:
            row.append(percentile(ordered[name], 100.0 * q) if ordered[name] else "-")
        rows.append(row)
    return render_table(headers, rows, title=f"CDF of {value_label}")


def render_series(
    x_label: str,
    x_values: Sequence[object],
    named_series: Dict[str, Sequence[float]],
    title: Optional[str] = None,
) -> str:
    """Render aligned x/y series (one row per x, one column per series)."""
    headers = [x_label] + list(named_series)
    rows: List[List[object]] = []
    for index, x in enumerate(x_values):
        row: List[object] = [x]
        for name in named_series:
            series = named_series[name]
            row.append(series[index] if index < len(series) else "-")
        rows.append(row)
    return render_table(headers, rows, title=title)
