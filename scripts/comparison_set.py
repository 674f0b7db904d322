#!/usr/bin/env python3
"""Write the comparison set: the CSVs that show whether a change keeps every bit.

Runs each command of ``COMMANDS`` through ``beamstab.cli.main``, each with
its own subdirectory of OUT as ``--out``, and exits 1 unless every command
exits 0 and the set holds ``EXPECTED_CSVS`` files.  Two trees written by
two checkouts (or by two runs of one) are compared with ``diff -r``:

    PYTHONPATH=src python scripts/comparison_set.py OUT
"""

import argparse
import sys
from pathlib import Path

from beamstab.cli import main as beamstab

EXPECTED_CSVS = 100

COMMANDS = {
    "certify-straight-toy": ["certify", "--scenario", "straight-toy"],
    "certify-straight-steel": ["certify", "--scenario", "straight-steel"],
    "certify-helical": ["certify", "--scenario", "helical"],
    "certify-helical-fine": ["certify", "--scenario", "helical",
                             "--override", "sim.n_cells=8192"],
    # the largest accepted grid: 128 full blocks of nodes and a ragged last one
    "certify-helical-cap": ["certify", "--scenario", "helical",
                            "--override", "sim.n_cells=65536"],
    # the longest straight-steel beam whose generator slack stays a normal double
    "certify-straight-steel-edge": ["certify", "--scenario", "straight-steel",
                                    "--override", "sim.n_cells=64",
                                    "--override", "params.length=2.05"],
    "dump-matrices-straight-toy": ["dump-matrices", "--scenario", "straight-toy"],
    "dump-matrices-straight-steel": ["dump-matrices", "--scenario", "straight-steel"],
    "dump-matrices-helical": ["dump-matrices", "--scenario", "helical"],
    "reconstruct-helical": ["reconstruct", "--scenario", "helical"],
    "reconstruct-straight-toy": ["reconstruct", "--scenario", "straight-toy"],
    "simulate-helical-upwind2": ["simulate", "--scenario", "helical",
                                 "--override", "sim.scheme=upwind2"],
    "simulate-straight-toy-order1": ["simulate", "--scenario", "straight-toy",
                                     "--override", "datum.order=1"],
    "simulate-straight-toy-order0": ["simulate", "--scenario", "straight-toy",
                                     "--override", "datum.order=0"],
    # the benchmark's reconstruct-helical workload at its seed 42
    "reconstruct-helical-t2": ["reconstruct", "--scenario", "helical",
                               "--override", "sim.t_end=2.0"],
    "sweep-mu1": ["sweep", "--scenario", "straight-toy", "--axis", "mu1",
                  "--values", "0.5,1.0,1.4142,2.0,4.0"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory of the set, one subdirectory per command")
    args = parser.parse_args()

    failed = []
    for name, argv in COMMANDS.items():
        code = beamstab([*argv, "--out", str(args.out / name)])
        if code:
            failed.append(f"{name} (exit {code})")
    written = len(list(args.out.glob("*/*.csv")))
    print(f"{written} CSVs in {args.out}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    if written != EXPECTED_CSVS:
        print(f"expected {EXPECTED_CSVS} CSVs, found {written}", file=sys.stderr)
    return 1 if failed or written != EXPECTED_CSVS else 0


if __name__ == "__main__":
    sys.exit(main())
