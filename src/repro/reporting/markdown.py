"""Markdown table rendering for experiment reports."""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def _cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0.0 and (abs(value) >= 1.0e6 or abs(value) < 1.0e-3):
            return f"{value:.{precision}e}"
        return f"{value:,.{precision}f}"
    return str(value)


def markdown_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    precision: int = 3,
) -> str:
    """Render rows of dicts as a GitHub-flavoured Markdown table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    header = "| " + " | ".join(str(c) for c in columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = [
        "| " + " | ".join(_cell(row.get(c, ""), precision) for c in columns) + " |"
        for row in rows
    ]
    return "\n".join([header, rule, *body])
