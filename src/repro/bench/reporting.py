"""Plain-text rendering of experiment tables and series."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


def format_duration(seconds: float) -> str:
    """``h:mm:ss`` (the paper's Table 4 uses hh:mm; we keep seconds
    because the simulated corpus is smaller)."""
    total = int(round(seconds))
    hours, rest = divmod(total, 3600)
    minutes, secs = divmod(rest, 60)
    return "{}:{:02d}:{:02d}".format(hours, minutes, secs)


def format_money(dollars: float) -> str:
    """Dollar amounts with enough precision for micro-costs."""
    if dollars == 0:
        return "$0"
    if abs(dollars) >= 0.01:
        return "${:.2f}".format(dollars)
    return "${:.6f}".format(dollars)


def format_bytes(count: float) -> str:
    """Human-readable byte sizes."""
    value = float(count)
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024.0 or unit == "GB":
            return "{:.2f} {}".format(value, unit)
        value /= 1024.0
    return "{:.2f} GB".format(value)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]]
    cells.extend([str(value) for value in row] for row in rows)
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(value.ljust(width)
                               for value, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


class Reporter:
    """Output helper every CLI subcommand routes its lines through.

    ``sys.stdout`` is resolved at call time, not at construction, so a
    harness that swaps the stream per invocation (pytest's ``capsys``,
    ``contextlib.redirect_stdout``) captures every line.
    """

    def line(self, text: str = "") -> None:
        """Write one line (or a pre-rendered multi-line block)."""
        sys.stdout.write(text + "\n")

    def blank(self) -> None:
        """Write an empty separator line."""
        self.line("")

    def table(self, headers: Sequence[str],
              rows: Sequence[Sequence[Any]]) -> None:
        """Write a fixed-width table."""
        self.line(format_table(headers, rows))


@dataclass
class ExperimentResult:
    """One regenerated table/figure: rows plus free-form series."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    #: Figures also carry named numeric series (x -> y maps).
    series: Dict[str, Dict[Any, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Render the artefact as readable text."""
        parts = ["== {} — {} ==".format(self.experiment_id, self.title)]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        for name, points in self.series.items():
            parts.append("series {}:".format(name))
            parts.append("  " + "  ".join(
                "{}={:.4g}".format(x, y) for x, y in points.items()))
        for note in self.notes:
            parts.append("note: " + note)
        return "\n".join(parts)

    def row_map(self) -> Dict[Any, List[Any]]:
        """Rows keyed by their first column (usually the strategy
        name)."""
        return {row[0]: row for row in self.rows}
