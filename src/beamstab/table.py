"""The text format of every CSV table the package writes."""

from __future__ import annotations

from typing import Sequence


def _quoted(cell: str) -> str:
    """``cell`` in RFC 4180 quotes, inner quotes doubled, when it holds a separator."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The header line, then one line per row.

    A str cell is written as it is, or quoted when it contains a comma, a
    quote or a line break; any other cell is written as ``%.17g``, which
    round-trips every double.  The kind of each column is read from the
    first row, so a column holds cells of one kind.
    """
    lines = [",".join(header) + "\n"]
    if len(rows):
        text = [isinstance(v, str) for v in rows[0]]
        line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
        if any(text):
            rows = [[_quoted(v) if t else v for v, t in zip(row, text)] for row in rows]
        lines += [line % tuple(row) for row in rows]
    return "".join(lines)
