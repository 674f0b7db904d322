"""The text format of every CSV table the package writes."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# rows formatted at a time: a 2-D array is turned into Python floats one
# block of rows at a time, never the whole table at once.  The certificate
# eigensolves its nodes in blocks of the same size, so that a certify
# command's working memory is one block of nodes or rows
ROW_BLOCK = 512


def _quoted(cell: str) -> str:
    """``cell`` in RFC 4180 quotes, inner quotes doubled, when it holds a separator."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_chunks(header: Sequence[str], blocks):
    """The header line, then the lines of each block of rows as one chunk (see :func:`csv_rows`)."""
    yield ",".join(header) + "\n"
    yield from csv_rows(blocks)


def csv_rows(blocks):
    """The lines of each block of rows as one chunk.

    A block is a sequence of rows or a 2-D array of numbers.  The kind of
    each column is read from the first row of the first block.
    """
    text = line = None
    for block in blocks:
        if isinstance(block, np.ndarray):
            block = block.tolist()
        if line is None:
            text = [isinstance(v, str) for v in block[0]]
            line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
        if any(text):
            block = [[_quoted(v) if t else v for v, t in zip(row, text)] for row in block]
        yield "".join([line % tuple(row) for row in block])


def csv_table(header: Sequence[str], rows: Sequence[Sequence] | np.ndarray) -> str:
    """The header line, then one line per row.

    A str cell is written as it is, or quoted when it contains a comma, a
    quote or a line break; any other cell is written as ``%.17g``, which
    round-trips every double.  The kind of each column is read from the
    first row, so a column holds cells of one kind.  ``rows`` may be a 2-D
    array of numbers; rows are formatted ``ROW_BLOCK`` at a time.
    """
    blocks = (rows[lo : lo + ROW_BLOCK] for lo in range(0, len(rows), ROW_BLOCK))
    return "".join(csv_chunks(header, blocks))
