"""Command-line harness: certify, simulate, reconstruct, sweep, dump-matrices.

All commands take a scenario (YAML file or preset name) and optional
dot-path overrides.  ``main`` does all of the I/O: it loads the scenario,
makes the output directory (flag --out, else $BEAMSTAB_OUT, else
./beamstab-out), runs the command, and writes each CSV text the command
returns to ``<scenario name>-<suffix>.csv`` with the full scenario echo in
front.  Tables are formatted by :func:`beamstab.table.csv_table` (17
significant digits), so any output can be regenerated bit-identically
from its scenario; the sole exception is the wall-clock runtime column of
sweep summaries.

Exit codes: 0 success, 3 certificate failure (an invalid certificate, an
empty weight window or phiL outside it), 4 blow-up during simulation, and
2 for every other package error (validation and scenario problems,
reconstruction and fitting failures).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import certificate as cert_mod
from . import reconstruct, scenarios, solver
from .errors import (
    BeamstabError,
    BlowupDetected,
    CkappaDegenerate,
    NonPositiveValues,
    ScenarioError,
    ValidationError,
    WindowViolation,
)
from .params import derive_matrices, dump_matrices
from .table import csv_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_BLOWUP = 4

MAX_POSE_SNAPSHOTS = 24


def _certified(scenario):
    """The scenario's matrices, reference and certificate."""
    matrices = derive_matrices(scenario.params)
    reference = scenarios.build_reference(scenario, matrices)
    spec = scenario.certificate
    cert = cert_mod.build_certificate(
        matrices, reference, m=spec.m, phi0=spec.phi0, phiL=spec.phiL
    )
    return matrices, reference, cert


def cmd_certify(scenario, args) -> tuple[int, dict[str, str]]:
    # no datum is built, so datum.* overrides cannot change certify's outcome
    matrices, reference, cert = _certified(scenario)
    alpha = cert_mod.decay_rate_estimate(cert, matrices, reference, delta=0.0) if cert.valid else 0.0
    text = cert_mod.certificate_to_csv(cert, matrices, reference, alpha_estimate=alpha)
    status = "valid" if cert.valid else "INVALID"
    print(
        f"certificate {status}: C_kappa={cert.reflection_bound:.6g} "
        f"C_q{cert.m}={cert.c:.6g} phiL={cert.phiL:.6g} "
        f"worst interior eig={cert.interior_margins.max():.6g}"
    )
    return (EXIT_OK if cert.valid else EXIT_CERTIFICATE), {"certificate": text}


def _prepare_run(scenario):
    matrices, reference, cert = _certified(scenario)
    spec = scenario.datum
    datum = solver.generate_initial_datum(
        matrices, reference, amplitude=spec.amplitude, seed=spec.seed, order=spec.order
    )
    return matrices, reference, cert, datum


def _fit_summary(scenario, traj, extra=None) -> str:
    t_min = solver.round_trip_time(scenario.params)
    nan = float("nan")
    rows = []
    # every command passes its certificate to the solver, so traj.lyap is recorded
    for label, values in (("lyapunov", traj.lyap), ("h1_sq", traj.h1**2)):
        try:
            rows.append((label, *solver.fit_decay(traj.times, values, t_min=t_min)))
        except (NonPositiveValues, ValidationError):
            rows.append((label, nan, nan, nan))
    rows += [(key, value, nan, nan) for key, value in (extra or {}).items()]
    return csv_table(["series", "alpha", "eta", "r_squared"], rows)


def cmd_simulate(scenario, args) -> tuple[int, dict[str, str]]:
    matrices, reference, cert, datum = _prepare_run(scenario)
    lyap_order = scenario.datum.order + 1
    traj = solver.simulate(
        scenario.sim, matrices, reference, datum, cert=cert, lyap_order=lyap_order
    )
    return EXIT_OK, {
        "trajectory": solver.trajectory_to_csv(traj),
        "final-state": solver.snapshot_to_csv(traj.final_state, matrices),
        "decay": _fit_summary(scenario, traj),
    }


def cmd_reconstruct(scenario, args) -> tuple[int, dict[str, str]]:
    matrices, reference, cert, datum = _prepare_run(scenario)
    traj, states, pose = reconstruct.run_pipeline(
        scenario.sim, matrices, reference, datum, cert=cert
    )
    round_trip = reconstruct.roundtrip_error(pose, states, reference)
    obs_times, obs_values = reconstruct.decay_observable(pose, states)

    files = {
        "trajectory": solver.trajectory_to_csv(traj),
        "pose-residuals": reconstruct.pose_residuals_to_csv(pose),
    }
    indices = sorted(set(np.linspace(0, len(states) - 1, MAX_POSE_SNAPSHOTS).astype(int)))
    for idx in indices:
        files[f"pose-{idx:05d}"] = reconstruct.pose_snapshot_to_csv(pose, idx)
    extra = {
        "roundtrip_sup_error": round_trip,
        "quaternion_norm_defect": pose.norm_defect,
        "centerline_route_gap": pose.route_gap,
    }
    try:
        alpha_obs, _, r2_obs = solver.fit_decay(
            obs_times, obs_values, t_min=solver.round_trip_time(scenario.params)
        )
        extra["observable_decay_rate"] = alpha_obs
        extra["observable_fit_r2"] = r2_obs
    except (NonPositiveValues, ValidationError):
        pass
    files["reconstruction"] = _fit_summary(scenario, traj, extra)
    return EXIT_OK, files


_SWEEP_PATHS = {
    "mu1": "params.mu1",
    "mu2": "params.mu2",
    "amplitude": "datum.amplitude",
    "N": "sim.n_cells",
}


def _sweep_row(payload):
    scenario, axis, value = payload
    start = time.perf_counter()
    row = {"value": value, "C_kappa": float("nan"), "cert_valid": 0,
           "alpha": float("nan"), "runtime_s": 0.0, "status": "ok"}
    try:
        scenario = scenarios.apply_override(scenario, f"{_SWEEP_PATHS[axis]}={value!r}")
        matrices, reference, cert, datum = _prepare_run(scenario)
        row["C_kappa"] = matrices.reflection_bound
        row["cert_valid"] = int(cert.valid)
        traj = solver.simulate(scenario.sim, matrices, reference, datum, cert=cert, lyap_order=1)
        # fit after the first round trip when the run is long enough,
        # otherwise over whatever trailing window still has 10 samples
        t_min = min(solver.round_trip_time(scenario.params), 0.5 * scenario.sim.t_end)
        if np.count_nonzero(traj.times >= t_min) < 10:
            t_min = traj.times[-min(10, len(traj.times))]
        alpha, _, _ = solver.fit_decay(traj.times, traj.lyap, t_min=t_min)
        row["alpha"] = alpha
    except BeamstabError as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
    row["runtime_s"] = time.perf_counter() - start
    return row


def cmd_sweep(scenario, args) -> tuple[int, dict[str, str]]:
    if args.workers < 1:
        raise ScenarioError(f"--workers must be at least 1, got {args.workers}")
    if args.axis not in _SWEEP_PATHS:
        raise ScenarioError(f"axis must be one of {', '.join(_SWEEP_PATHS)}")
    values = []
    for chunk in args.values.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(int(chunk) if args.axis == "N" else float(chunk))
        except ValueError:
            raise ScenarioError(f"bad {_SWEEP_PATHS[args.axis]} sweep value {chunk!r}") from None
    if not values:
        raise ScenarioError("no sweep values given")
    for v in values:
        if not np.isfinite(v):
            raise ScenarioError(f"sweep values must be finite, got {v}")

    payloads = [(scenario, args.axis, v) for v in values]
    # the pool starts all of its workers at once, so ask for no more than can run
    workers = min(args.workers, len(values), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the process pool machinery costs every other command ~20 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]

    table = csv_table(
        ["value", "C_kappa", "cert_valid", "alpha", "runtime_s", "status"],
        [(row["value"], row["C_kappa"], row["cert_valid"], row["alpha"],
          f"{row['runtime_s']:.3f}", row["status"]) for row in rows],
    )
    return EXIT_OK, {f"sweep-{args.axis}": f"# axis = {args.axis}\n" + table}


def cmd_dump_matrices(scenario, args) -> tuple[int, dict[str, str]]:
    return EXIT_OK, {"matrices": dump_matrices(derive_matrices(scenario.params))}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamstab",
        description="Boundary-feedback stabilization lab for geometrically exact beams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario YAML file or preset name "
                            f"({', '.join(sorted(scenarios.PRESETS))})")
        p.add_argument("--out", default=None, help="output directory (default $BEAMSTAB_OUT)")
        p.add_argument("--override", action="append", default=[],
                       metavar="PATH=VALUE", help="dot-path scenario override, repeatable")

    common(sub.add_parser("certify", help="build and verify the stability certificate"))
    common(sub.add_parser("simulate", help="run the closed loop and record decay series"))
    common(sub.add_parser("reconstruct", help="simulate, rebuild pose, check round trip"))
    sweep = sub.add_parser("sweep", help="run one scenario axis over many values")
    common(sweep)
    sweep.add_argument("--axis", required=True, choices=sorted(_SWEEP_PATHS))
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--workers", type=int, default=1)
    common(sub.add_parser("dump-matrices", help="write all derived matrices as CSV"))
    return parser


_COMMANDS = {
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "sweep": cmd_sweep,
    "dump-matrices": cmd_dump_matrices,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = scenarios.load_scenario(args.scenario)
        for item in args.override:
            scenario = scenarios.apply_override(scenario, item)
        out = Path(args.out or os.environ.get("BEAMSTAB_OUT") or "beamstab-out")
        out.mkdir(parents=True, exist_ok=True)
        code, files = _COMMANDS[args.command](scenario, args)
        echo = "".join(f"# {k} = {v}\n" for k, v in scenarios.header_echo(scenario).items())
        for suffix, text in files.items():
            path = out / f"{scenario.name}-{suffix}.csv"
            # two writes: echo + text would copy the table once more, 0.5 MB of
            # peak memory for certify at N=8192
            with path.open("w") as fh:
                fh.write(echo)
                fh.write(text)
            print(f"wrote {path}")
        return code
    except BeamstabError as exc:
        if isinstance(exc, (WindowViolation, CkappaDegenerate)):
            print(f"certificate error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_CERTIFICATE
        if isinstance(exc, BlowupDetected):
            print(f"blow-up: {exc}", file=sys.stderr)
            return EXIT_BLOWUP
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
