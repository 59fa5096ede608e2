"""Plain-text visualisation primitives for the dashboards.

The original demo renders its dashboards in HTML/JavaScript; this library
targets terminals and log files instead, so the End-User and Developer
monitors are built on three small primitives:

* :func:`bar_chart`   — horizontal bars (hit percentages, utilities, ...);
* :func:`id_grid`     — a grid of dataset/cache ids with a highlighted subset
  (the visual language of Fig. 3: "bars filled with dark blue");
* :func:`format_table` — aligned key/value or tabular output.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence


def bar_chart(
    values: Mapping[str, float] | Sequence[tuple[str, float]],
    width: int = 40,
    fill_char: str = "█",
    empty_char: str = " ",
    show_value: bool = True,
) -> str:
    """Render a horizontal bar chart, one row per (label, value)."""
    items = list(values.items()) if isinstance(values, Mapping) else list(values)
    if not items:
        return "(no data)"
    max_value = max((value for _, value in items), default=0.0)
    label_width = max(len(str(label)) for label, _ in items)
    lines: list[str] = []
    for label, value in items:
        filled = 0 if max_value <= 0 else int(round(width * value / max_value))
        bar = fill_char * filled + empty_char * (width - filled)
        suffix = f" {value:.3g}" if show_value else ""
        lines.append(f"{str(label).rjust(label_width)} |{bar}|{suffix}")
    return "\n".join(lines)


def id_grid(
    all_ids: Iterable,
    highlighted: Iterable,
    columns: int = 10,
    highlight_format: str = "[{}]",
    normal_format: str = " {} ",
) -> str:
    """Render ids in a grid, bracketing the highlighted ones.

    This mirrors the demo's coloured-box view of dataset graphs: the ids in
    ``highlighted`` stand for the "dark blue" boxes.
    """
    ids = list(all_ids)
    marked = set(highlighted)
    if not ids:
        return "(empty)"
    cell_width = max(len(str(identifier)) for identifier in ids) + 2
    lines: list[str] = []
    row: list[str] = []
    for position, identifier in enumerate(ids):
        text = str(identifier)
        cell = (
            highlight_format.format(text) if identifier in marked else normal_format.format(text)
        )
        row.append(cell.rjust(cell_width))
        if (position + 1) % columns == 0:
            lines.append(" ".join(row))
            row = []
    if row:
        lines.append(" ".join(row))
    return "\n".join(lines)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered_rows = [[_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), max((len(row[index]) for row in rendered_rows), default=0))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    separator = "-+-".join("-" * widths[index] for index in range(len(columns)))
    body = [
        " | ".join(row[index].ljust(widths[index]) for index in range(len(columns)))
        for row in rendered_rows
    ]
    return "\n".join([header, separator, *body])


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
