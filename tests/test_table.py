import csv
import io

import numpy as np

from beamstab import table
from beamstab.table import csv_table


def _oracle(header, rows):
    """The row format every writer used before: f"{v:.17g}" per number, str as is."""
    out = [",".join(header) + "\n"]
    for row in rows:
        out.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")
    return "".join(out)


SPECIAL = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e17, 0.1,
    1 / 3, -2.5e-300, 1.7976931348623157e308, 2.2250738585072014e-308,
]


def test_numbers_match_the_fstring_oracle_byte_for_byte():
    rows = [(v, np.float64(v), -v) for v in SPECIAL]
    header = ["a", "b", "c"]
    assert csv_table(header, rows) == _oracle(header, rows)


def test_ints_bools_and_numpy_scalars():
    rows = [
        (0, True, np.int64(7), np.float32(0.1), np.float64(1e-5)),
        (2**53 + 1, False, np.int64(-(2**62)), np.float32(-3.5), np.float64(-0.0)),
        (-(2**63) + 1, 1, np.int32(12), np.float32(np.inf), np.float64(np.nan)),
    ]
    header = ["int", "bool", "i64", "f32", "f64"]
    assert csv_table(header, rows) == _oracle(header, rows)


def test_string_cells_are_written_as_they_are():
    rows = [("lyapunov", 0.5, "ok"), ("h1_sq", float("nan"), "Error: 50% off; twice")]
    text = csv_table(["series", "alpha", "status"], rows)
    assert text == _oracle(["series", "alpha", "status"], rows)
    assert text.splitlines()[2] == "h1_sq,nan,Error: 50% off; twice"


def test_string_cells_with_separators_read_back_through_csv_reader():
    cells = ["ValidationError: mu1 must be finite and > 0, got -1.0", 'say "hi"', '"',
             ",", "two\nlines", "cr\rlf\r\n", "", "plain", "50% off"]
    rows = [(cell, float(k), f"{k}") for k, cell in enumerate(cells)]
    text = csv_table(["status", "value", "label"], rows)
    back = list(csv.reader(io.StringIO(text, newline="")))
    assert back[0] == ["status", "value", "label"]
    assert back[1:] == [[cell, f"{float(k):.17g}", f"{k}"] for k, cell in enumerate(cells)]
    assert text.splitlines()[1] == '"ValidationError: mu1 must be finite and > 0, got -1.0",0,0'
    assert text.splitlines()[2] == '"say ""hi""",1,1'


def test_array_rows_and_empty_tables(monkeypatch):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(17, 5)) * 10.0 ** rng.integers(-300, 300, size=(17, 5))
    header = [f"c{j}" for j in range(5)]
    quoted = [(f"s,{k}", *row) for k, row in enumerate(values.tolist())]
    whole = csv_table(["s", *header], quoted)
    # one block, blocks that divide the rows, and a ragged last block
    for block in (table.ROW_BLOCK, 1, 4, 17):
        monkeypatch.setattr(table, "ROW_BLOCK", block)
        assert csv_table(header, values) == _oracle(header, values)
        assert csv_table(header, values.tolist()) == _oracle(header, values)
        assert csv_table(["s", *header], quoted) == whole
    assert csv_table(header, []) == "c0,c1,c2,c3,c4\n"
    assert csv_table(header, np.zeros((0, 5))) == "c0,c1,c2,c3,c4\n"


def test_chunks_are_the_header_then_one_chunk_per_block():
    values = np.random.default_rng(5).normal(size=(11, 3))
    header = ["a", "b", "c"]
    rows = [(f"r,{k}", *row) for k, row in enumerate(values.tolist())]
    for data, head in ((values, header), (rows, ["s", *header])):
        # blocks of any sizes: the kind of each column is read from the first row
        chunks = list(table.csv_chunks(head, [data[:2], data[2:9], data[9:]]))
        assert chunks[0] == ",".join(head) + "\n"
        assert [c.count("\n") for c in chunks[1:]] == [2, 7, 2]
        assert "".join(chunks) == csv_table(head, data)
    assert "".join(table.csv_chunks(header, [values[:2], values[2:]])) == _oracle(header, values)
    assert list(table.csv_chunks(header, [])) == ["a,b,c\n"]
