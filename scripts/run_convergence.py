#!/usr/bin/env python3
"""Grid-refinement study for both upwind schemes.

Runs the straight toy beam from a smooth low-mode datum over a short
horizon, measures terminal-state self-convergence across doubling grids,
and prints the observed orders (expected: about 1 and about 2).
"""

import argparse
from pathlib import Path

import numpy as np

from beamstab.model import StateField, straight_reference
from beamstab.params import derive_matrices
from beamstab.scenarios import PRESETS
from beamstab.solver import SimConfig, simulate, sobolev_norms
from beamstab.table import csv_table


def smooth_datum(ref, amplitude=1e-2, seed=11):
    rng = np.random.default_rng(seed)
    xi = ref.grid / ref.grid[-1]
    values = rng.normal(size=12)[None, :] * (np.sin(np.pi * xi) ** 2)[:, None]
    norm = sobolev_norms(values, ref.dx, 1)
    return StateField(ref.grid, "physical", values * (amplitude / norm), 0.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="beamstab-out", type=Path)
    parser.add_argument("--t-end", default=0.2, type=float)
    parser.add_argument("--grids", default="64,128,256,512")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    params = PRESETS["straight-toy"].params
    matrices = derive_matrices(params)
    grids = [int(v) for v in args.grids.split(",")]

    rows = []
    for scheme in ("upwind1", "upwind2"):
        terminal = {}
        for n in grids:
            ref = straight_reference(params, n, matrices)
            cfg = SimConfig(n_cells=n, cfl=0.9, t_end=args.t_end,
                            output_stride=10**9, store_snapshots=True, scheme=scheme)
            terminal[n] = simulate(cfg, matrices, ref, smooth_datum(ref)).snapshots[-1].values
        for coarse, fine in zip(grids, grids[1:]):
            stride = fine // coarse
            err = float(np.sqrt(((terminal[coarse] - terminal[fine][::stride]) ** 2).mean()))
            rows.append((scheme, coarse, fine, err))
        for (s1, c1, f1, e1), (s2, c2, f2, e2) in zip(rows, rows[1:]):
            if s1 == s2 == scheme and f1 == c2:
                print(f"{scheme}: order({c1}->{c2}) = {np.log2(e1 / e2):.3f}")

    path = args.out / "convergence.csv"
    path.write_text(csv_table(["scheme", "n_coarse", "n_fine", "rms_difference"], rows))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
