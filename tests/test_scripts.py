"""Smoke runs of the experiment scripts on small grids."""

import csv
import importlib.util
from pathlib import Path

import pytest

from beamstab import cli
from conftest import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, tables", [
    ("run_decay_study.py", ["--n-cells", "16", "--t-end", "3"],
     {"decay-vs-mu1.csv": None, "decay-vs-phiL.csv": None}),
    ("run_convergence.py", ["--grids", "16,32", "--t-end", "0.05"], {"convergence.csv": None}),
    # shorter than one round trip: no fit has a window, so every alpha_fit reads nan
    ("run_decay_study.py", ["--n-cells", "16", "--t-end", "0.5"],
     {"decay-vs-mu1.csv": "alpha_fit", "decay-vs-phiL.csv": "alpha_fit"}),
])
def test_script_writes_its_tables(tmp_path, script, args, tables):
    """Each table is written; a column named beside it reads nan on every row."""
    proc = run_python([str(SCRIPTS / script), "--out", str(tmp_path), *args])
    assert proc.returncode == 0, proc.stderr
    for name, nan_column in tables.items():
        text = (tmp_path / name).read_text()
        assert text, name
        if nan_column:
            rows = list(csv.DictReader(text.splitlines()))
            assert rows and {row[nan_column] for row in rows} == {"nan"}, name


def test_comparison_set_commands_parse():
    # the full set takes about 50 s; here each command line is only parsed
    spec = importlib.util.spec_from_file_location("comparison_set", SCRIPTS / "comparison_set.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert len(module.COMMANDS) == 16
    for name, argv in module.COMMANDS.items():
        try:
            cli._build_parser().parse_args([*argv, "--out", name])
        except SystemExit:
            pytest.fail(f"comparison set command does not parse: {name}")
