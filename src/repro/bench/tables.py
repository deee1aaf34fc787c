"""Result-table formatting for the benchmark harness.

All benchmarks emit GitHub-flavoured markdown tables, to stdout and, when
asked, into ``bench_results/`` so EXPERIMENTS.md can reference stable
artefacts.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

__all__ = ["format_table", "summarize_interval"]

Cell = Union[str, int, float, bool, None]


def _render(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Cell]],
    columns: Optional[Sequence[str]] = None,
    *,
    title: str = "",
) -> str:
    """Render rows of dicts as a markdown table.

    Parameters
    ----------
    rows:
        Mappings sharing (a superset of) the chosen columns.
    columns:
        Column order; defaults to the keys of the first row.
    title:
        Optional heading emitted above the table.
    """
    if not rows:
        return (f"### {title}\n\n" if title else "") + "*(no rows)*\n"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_render(row.get(c)) for c in cols] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |")
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rendered:
        lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |")
    return "\n".join(lines) + "\n"


def summarize_interval(values: Sequence[float]) -> str:
    """The paper's ``[low, high]`` interval notation for random samples."""
    if not values:
        return "[]"
    return f"[{min(values):.2f}, {max(values):.2f}]"
