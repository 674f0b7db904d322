"""The text format of every CSV table the package writes."""

from __future__ import annotations

from typing import Sequence


def csv_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The header line, then one line per row.

    A str cell is written as it is and any other cell as ``%.17g``, which
    round-trips every double.  The kind of each column is read from the
    first row, so a column holds cells of one kind.
    """
    lines = [",".join(header) + "\n"]
    if len(rows):
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
        lines += [line % tuple(row) for row in rows]
    return "".join(lines)
