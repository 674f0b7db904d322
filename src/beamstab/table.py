"""The text format of every CSV table the package writes."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# rows formatted at a time: a 2-D array is turned into Python floats one
# block of rows at a time, never the whole table at once
ROW_BLOCK = 4096


def _quoted(cell: str) -> str:
    """``cell`` in RFC 4180 quotes, inner quotes doubled, when it holds a separator."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_table(header: Sequence[str], rows: Sequence[Sequence] | np.ndarray) -> str:
    """The header line, then one line per row.

    A str cell is written as it is, or quoted when it contains a comma, a
    quote or a line break; any other cell is written as ``%.17g``, which
    round-trips every double.  The kind of each column is read from the
    first row, so a column holds cells of one kind.  ``rows`` may be a 2-D
    array of numbers; rows are formatted ``ROW_BLOCK`` at a time.
    """
    lines = [",".join(header) + "\n"]
    if len(rows):
        text = [isinstance(v, str) for v in rows[0]]
        line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
        for lo in range(0, len(rows), ROW_BLOCK):
            block = rows[lo : lo + ROW_BLOCK]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            if any(text):
                block = [[_quoted(v) if t else v for v, t in zip(row, text)] for row in block]
            lines.append("".join([line % tuple(row) for row in block]))
    return "".join(lines)
