"""Plain-text table and series primitives under the artefact renderers
(:mod:`repro.analysis.report`), the telemetry and the campaign reports."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.errors import PerfModelError

__all__ = ["render_table", "render_series", "format_mflups"]


def format_mflups(value: float) -> str:
    """Compact MFLUPS formatting matched to the figures' log axes."""
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Fixed-width table with a header rule."""
    if not headers:
        raise PerfModelError("table needs headers")
    for row in rows:
        if len(row) != len(headers):
            raise PerfModelError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    cols = [list(col) for col in zip(headers, *rows)] if rows else [
        [h] for h in headers
    ]
    widths = [max(len(str(c)) for c in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*headers))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*[str(c) for c in row]))
    return "\n".join(lines)


def render_series(
    gpu_counts: Sequence[int],
    series: Dict[str, Sequence[float]],
    value_format: str = "{:.3f}",
    title: str = "",
) -> str:
    """Render several per-GPU-count series as rows of one table."""
    headers = ["series"] + [str(n) for n in gpu_counts]
    rows: List[List[str]] = []
    for label in series:
        values = series[label]
        if len(values) != len(gpu_counts):
            raise PerfModelError(
                f"series {label!r} has {len(values)} points, "
                f"expected {len(gpu_counts)}"
            )
        rows.append([label] + [value_format.format(v) for v in values])
    return render_table(headers, rows, title)
