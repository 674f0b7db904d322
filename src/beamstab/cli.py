"""Command-line harness: certify, simulate, reconstruct, sweep, dump-matrices.

All commands take a scenario (YAML file or preset name), optional dot-path
overrides, and write CSV reports into the output directory (flag --out,
else $BEAMSTAB_OUT, else ./beamstab-out).  Floating-point output uses 17
significant digits, and every file embeds the full scenario echo, so any
output can be regenerated bit-identically from its scenario; the sole
exception is the wall-clock runtime column of sweep summaries.

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

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_BLOWUP = 4

MAX_POSE_SNAPSHOTS = 24


def _out_dir(args) -> Path:
    base = args.out or os.environ.get("BEAMSTAB_OUT") or "beamstab-out"
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> scenarios.Scenario:
    scenario = scenarios.load_scenario(args.scenario)
    for item in args.override or []:
        scenario = scenarios.apply_override(scenario, item)
    return scenario


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _echo_prefix(scenario) -> str:
    lines = [f"# {k} = {v}" for k, v in scenarios.header_echo(scenario).items()]
    return "\n".join(lines) + "\n"


def cmd_certify(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    matrices = derive_matrices(scenario.params)
    reference = scenarios.build_reference(scenario, matrices)
    spec = scenario.certificate
    cert = cert_mod.build_certificate(
        matrices, reference, m=spec.m, phi0=spec.phi0, phiL=spec.phiL
    )
    alpha = cert_mod.decay_rate_estimate(cert, matrices, reference, delta=0.0) if cert.valid else 0.0
    text = _echo_prefix(scenario) + cert_mod.certificate_to_csv(
        cert, matrices, reference, alpha_estimate=alpha
    )
    _write(out / f"{scenario.name}-certificate.csv", text)
    status = "valid" if cert.valid else "INVALID"
    print(
        f"certificate {status}: C_kappa={cert.reflection_bound:.6g} "
        f"C_q{cert.m}={cert.c:.6g} phiL={cert.phiL:.6g} "
        f"worst interior eig={cert.interior_margins.max():.6g}"
    )
    return EXIT_OK if cert.valid else EXIT_CERTIFICATE


def _prepare_run(scenario):
    matrices = derive_matrices(scenario.params)
    reference = scenarios.build_reference(scenario, matrices)
    spec = scenario.certificate
    cert = cert_mod.build_certificate(
        matrices, reference, m=spec.m, phi0=spec.phi0, phiL=spec.phiL
    )
    datum = solver.generate_initial_datum(
        matrices,
        reference,
        amplitude=scenario.datum.amplitude,
        seed=scenario.datum.seed,
        order=scenario.datum.order,
    )
    return matrices, reference, cert, datum


def _fit_summary(scenario, traj, extra=None) -> str:
    t_min = solver.round_trip_time(scenario.params)
    rows = []

    def try_fit(label, values):
        try:
            alpha, eta, r2 = solver.fit_decay(traj.times, values, t_min=t_min)
            rows.append((label, alpha, eta, r2))
        except (NonPositiveValues, ValidationError):
            rows.append((label, float("nan"), float("nan"), float("nan")))

    if traj.lyap is not None:
        try_fit("lyapunov", traj.lyap)
    try_fit("h1_sq", traj.h1**2)
    out = [_echo_prefix(scenario)]
    out.append("series,alpha,eta,r_squared\n")
    for label, alpha, eta, r2 in rows:
        out.append(f"{label},{alpha:.17g},{eta:.17g},{r2:.17g}\n")
    for key, value in (extra or {}).items():
        out.append(f"{key},{value:.17g},nan,nan\n")
    return "".join(out)


def cmd_simulate(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    matrices, reference, cert, datum = _prepare_run(scenario)
    lyap_order = scenario.datum.order + 1
    traj = solver.simulate(
        scenario.sim, matrices, reference, datum, cert=cert, lyap_order=lyap_order
    )
    prefix = _echo_prefix(scenario)
    _write(out / f"{scenario.name}-trajectory.csv", prefix + solver.trajectory_to_csv(traj))
    _write(
        out / f"{scenario.name}-final-state.csv",
        prefix + solver.snapshot_to_csv(traj.final_state, matrices),
    )
    _write(out / f"{scenario.name}-decay.csv", _fit_summary(scenario, traj))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    matrices, reference, cert, datum = _prepare_run(scenario)
    traj, states, pose = reconstruct.run_pipeline(
        scenario.sim, matrices, reference, datum, cert=cert
    )
    round_trip = reconstruct.roundtrip_error(pose, states, reference)
    obs_times, obs_values = reconstruct.decay_observable(pose, states)

    prefix = _echo_prefix(scenario)
    _write(out / f"{scenario.name}-trajectory.csv", prefix + solver.trajectory_to_csv(traj))
    _write(
        out / f"{scenario.name}-pose-residuals.csv",
        prefix + reconstruct.pose_residuals_to_csv(pose),
    )
    indices = sorted(set(np.linspace(0, len(states) - 1, MAX_POSE_SNAPSHOTS).astype(int)))
    for idx in indices:
        _write(
            out / f"{scenario.name}-pose-{idx:05d}.csv",
            prefix + reconstruct.pose_snapshot_to_csv(pose, idx),
        )
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
    _write(out / f"{scenario.name}-reconstruction.csv", _fit_summary(scenario, traj, extra))
    return EXIT_OK


_SWEEP_PATHS = {
    "mu1": "params.mu1",
    "mu2": "params.mu2",
    "amplitude": "datum.amplitude",
    "N": "sim.n_cells",
}


def _sweep_row(payload):
    scenario_dict, axis, value = payload
    start = time.perf_counter()
    row = {"value": value, "C_kappa": float("nan"), "cert_valid": 0,
           "alpha": float("nan"), "runtime_s": 0.0, "status": "ok"}
    try:
        scenario = scenarios.scenario_from_dict(scenario_dict)
        scenario = scenarios.apply_override(scenario, f"{_SWEEP_PATHS[axis]}={value!r}")
        matrices, reference, cert, datum = _prepare_run(scenario)
        row["C_kappa"] = matrices.reflection_bound
        row["cert_valid"] = int(cert.valid)
        traj = solver.simulate(scenario.sim, matrices, reference, datum, cert=cert, lyap_order=1)
        series = traj.lyap if traj.lyap is not None else traj.h1**2
        # fit after the first round trip when the run is long enough,
        # otherwise over whatever trailing window still has 10 samples
        t_min = min(solver.round_trip_time(scenario.params), 0.5 * scenario.sim.t_end)
        if np.count_nonzero(traj.times >= t_min) < 10:
            t_min = traj.times[-min(10, len(traj.times))]
        alpha, _, _ = solver.fit_decay(traj.times, series, t_min=t_min)
        row["alpha"] = alpha
    except BeamstabError as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
    row["runtime_s"] = time.perf_counter() - start
    return row


def cmd_sweep(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
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

    payloads = [(scenarios.scenario_to_dict(scenario), args.axis, v) for v in values]
    if args.workers > 1:
        # imported here: the process pool machinery costs every other command ~20 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]

    text = [_echo_prefix(scenario)]
    text.append(f"# axis = {args.axis}\n")
    text.append("value,C_kappa,cert_valid,alpha,runtime_s,status\n")
    for row in rows:
        text.append(
            f"{row['value']:.17g},{row['C_kappa']:.17g},{row['cert_valid']},"
            f"{row['alpha']:.17g},{row['runtime_s']:.3f},{row['status']}\n"
        )
    _write(out / f"{scenario.name}-sweep-{args.axis}.csv", "".join(text))
    return EXIT_OK


def cmd_dump_matrices(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    matrices = derive_matrices(scenario.params)
    _write(out / f"{scenario.name}-matrices.csv", _echo_prefix(scenario) + dump_matrices(matrices))
    return EXIT_OK


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
        return _COMMANDS[args.command](args)
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
