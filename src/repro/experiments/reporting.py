"""Plain-text reporting helpers shared by experiments and benchmarks.

Every experiment prints its tables through these helpers so the output format
stays uniform (and greppable in ``bench_output.txt``), and sweep campaigns
render their record collections through :func:`format_sweep_summary`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.results import ExperimentRecord


def format_value(value: object, precision: int = 3) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    precision: int = 3,
    title: str = "",
) -> str:
    """Render a fixed-width text table."""
    rendered_rows: list[list[str]] = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line([str(header) for header in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(render_line(row))
    return "\n".join(lines)


def format_sweep_summary(
    records: Sequence[ExperimentRecord],
    *,
    max_metric_columns: int = 6,
    precision: int = 3,
) -> str:
    """Render a sweep campaign's records as one table plus a header line.

    Within a campaign every record shares a metric vocabulary, so the table
    shows the swept params and the first ``max_metric_columns`` metric names
    (sorted); failed tasks show their error instead of metrics.
    """
    if not records:
        return "sweep produced no records"
    ordered = sorted(records, key=lambda record: record.task_index)
    experiment = ordered[0].experiment
    n_ok = sum(1 for record in ordered if record.ok)
    n_err = len(ordered) - n_ok
    param_keys = sorted({key for record in ordered for key in record.params})
    metric_keys = sorted({key for record in ordered for key in record.metrics})
    shown_metrics = metric_keys[:max_metric_columns]
    hidden = len(metric_keys) - len(shown_metrics)

    headers = ["task", *param_keys, *shown_metrics, "status"]
    rows = []
    for record in ordered:
        row: list[object] = [record.task_index]
        row += [record.params.get(key, "") for key in param_keys]
        row += [record.metrics.get(key, "") for key in shown_metrics]
        row.append(record.status if record.ok else f"error: {record.error}")
        rows.append(row)

    header_line = f"sweep of {experiment!r}: {len(ordered)} tasks, {n_ok} ok, {n_err} failed"
    if hidden > 0:
        header_line += f" ({hidden} more metric(s) in the structured output)"
    table = format_table(headers, rows, precision=precision)
    return header_line + "\n" + table
