#!/usr/bin/env python3
"""Decay-rate study: how feedback gains and the weight endpoint shape decay.

Sweeps mu1 around its closed-form optimum (keeping mu2 optimal) and, for the
optimal gains, sweeps the certificate endpoint phi(L) across its admissible
window.  Each case reads the scenario's certificate and datum specs and is
fitted as the commands fit (nan without a window).  Writes two CSV tables into --out.
"""

import argparse
from pathlib import Path

import numpy as np

from beamstab.certificate import decay_rate_estimate, phi_window
from beamstab.cli import _fit, _prepare_run
from beamstab.params import derive_matrices
from beamstab.scenarios import PRESETS, apply_override
from beamstab.solver import simulate
from beamstab.table import csv_table


def run_case(scenario):
    matrices, reference, cert, datum = _prepare_run(scenario)
    traj = simulate(scenario.sim, matrices, reference, datum, cert=cert, lyap_order=1)
    alpha, _, r2 = _fit(scenario, traj.times, traj.lyap)
    return matrices, reference, cert, alpha, r2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="beamstab-out", type=Path)
    parser.add_argument("--n-cells", default=128, type=int)
    parser.add_argument("--t-end", default=8.0, type=float)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    base = PRESETS["straight-toy"]
    base = apply_override(base, f"sim.n_cells={args.n_cells}")
    base = apply_override(base, f"sim.t_end={args.t_end}")
    base = apply_override(base, "sim.output_stride=4")

    mu_star = base.params.mu1
    rows = []
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        scenario = apply_override(base, f"params.mu1={mu_star * factor}")
        matrices, reference, cert, alpha, r2 = run_case(scenario)
        est = decay_rate_estimate(cert, matrices, reference, delta=0.0)
        rows.append((mu_star * factor, matrices.reflection_bound, alpha, r2, est))
        print(f"mu1 = {mu_star * factor:8.4f}  C_kappa = {rows[-1][1]:.4f}  "
              f"alpha_fit = {alpha:.4f}  alpha_est = {est:.4f}")
    path = args.out / "decay-vs-mu1.csv"
    path.write_text(csv_table(["mu1", "C_kappa", "alpha_fit", "r_squared", "alpha_estimate"], rows))
    print(f"wrote {path}")

    matrices = derive_matrices(base.params)
    lo, hi = phi_window(matrices.reflection_bound, 1.0)
    hi = min(hi, 3.0)
    rows = []
    for phiL in np.linspace(lo + 1e-3, hi, 6):
        scenario = apply_override(base, f"certificate.phiL={float(phiL)!r}")
        _, _, cert, alpha, r2 = run_case(scenario)
        rows.append((phiL, cert.c, alpha, r2))
        print(f"phiL = {phiL:6.3f}  alpha_fit = {alpha:.4f}  (r2 = {r2:.4f})")
    path = args.out / "decay-vs-phiL.csv"
    path.write_text(csv_table(["phiL", "C_q1", "alpha_fit", "r_squared"], rows))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
