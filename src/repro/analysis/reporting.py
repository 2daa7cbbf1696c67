"""Plain-text reporting helpers: tables and horizontal bar charts.

The benchmarks and examples print their figures/tables as text so the
reproduction has no plotting dependency; these helpers keep that output
consistent and readable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import ValidationError


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a right-aligned plain-text table."""
    if not headers:
        raise ValidationError("a table needs at least one column")
    str_rows = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValidationError("every row must have one cell per header")
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in str_rows)) if str_rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [" | ".join(str(headers[i]).rjust(widths[i]) for i in range(len(headers)))]
    lines.append("-+-".join("-" * width for width in widths))
    for row in str_rows:
        lines.append(" | ".join(row[i].rjust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def render_bar_chart(
    values: Mapping[str, float],
    width: int = 40,
    fill: str = "█",
    show_values: bool = True,
) -> str:
    """Render a horizontal bar chart of labelled values.

    Negative values are drawn with ``▒`` so contribution charts can show both
    positive and negative Shapley values on one scale.
    """
    if not values:
        raise ValidationError("a bar chart needs at least one value")
    if width < 1:
        raise ValidationError("width must be positive")
    label_width = max(len(str(label)) for label in values)
    magnitude = max(abs(float(v)) for v in values.values())
    lines = []
    for label, value in values.items():
        value = float(value)
        bar_length = 0 if magnitude == 0 else int(round(abs(value) / magnitude * width))
        bar = (fill if value >= 0 else "▒") * bar_length
        suffix = f" {value:+.4f}" if show_values else ""
        lines.append(f"{str(label).ljust(label_width)} |{bar}{suffix}")
    return "\n".join(lines)
