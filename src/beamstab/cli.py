"""Command-line harness: certify, simulate, reconstruct, sweep, dump-matrices.

All commands take a scenario (YAML file or preset name) and optional
dot-path overrides.  ``main`` does all of the I/O: it loads the scenario,
makes the output directory (flag --out, else $BEAMSTAB_OUT, else
./beamstab-out), runs the command, and writes each CSV the command returns
(a text, or an iterable of text chunks) to ``<scenario name>-<suffix>.csv``
with the full scenario echo in front.  Tables are formatted by
:func:`beamstab.table.csv_table` (17 significant digits), so every output
regenerates bit-identically from its scenario.  Timings go to stdout only.
On Linux ``reconstruct`` and, on a grid of at least two ``table.ROW_BLOCK``
blocks of nodes, ``certify`` run part of their work in a forked child
(:mod:`beamstab.forked`) with the same bits; the child has ended when the
command's files are written or the command fails.

Exit codes: 0 success, 3 certificate failure (an invalid certificate, an
empty weight window or phiL outside it), 4 blow-up during simulation, and
2 for every other package error (validation and scenario problems,
reconstruction failures) and for an output path that cannot be written.
A decay fit that fails writes NaN; it sets no exit code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

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
from .table import ROW_BLOCK, csv_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_BLOWUP = 4


def _certified(scenario, build=cert_mod.build_certificate):
    """The scenario's matrices, reference and ``build(matrices, reference, m, phi0, phiL)``."""
    matrices = derive_matrices(scenario.params)
    reference = scenarios.build_reference(scenario, matrices)
    spec = scenario.certificate
    return matrices, reference, build(matrices, reference, spec.m, spec.phi0, spec.phiL)


def cmd_certify(scenario, args) -> tuple[int, dict]:
    # no datum is built, so datum.* overrides cannot change certify's outcome.
    # On a grid of two row blocks or more, the back half of the nodes is
    # eigensolved and formatted in a forked child, with the same bits
    forks = reconstruct._FORK and scenario.sim.n_cells + 1 >= 2 * ROW_BLOCK
    if forks:
        from .forked import certify  # here: the commands that do not fork never compile it

        matrices, reference, (cert, table) = _certified(scenario, certify)
    else:
        matrices, reference, cert = _certified(scenario)
    alpha = cert_mod.decay_rate_estimate(cert, matrices, reference, delta=0.0) if cert.valid else 0.0
    status = "valid" if cert.valid else "INVALID"
    print(
        f"certificate {status}: C_kappa={cert.reflection_bound:.6g} "
        f"C_q{cert.m}={cert.c:.6g} phiL={cert.phiL:.6g} "
        f"worst interior eig={cert.interior_margins.max():.6g}"
    )
    # the report's chunks are formatted as main writes them
    if forks:
        chunks = cert_mod._report_chunks(cert, alpha, table)
    else:
        chunks = cert_mod.certificate_csv_chunks(cert, alpha_estimate=alpha)
    return (EXIT_OK if cert.valid else EXIT_CERTIFICATE), {"certificate": chunks}


def _prepare_run(scenario):
    matrices, reference, cert = _certified(scenario)
    spec = scenario.datum
    datum = solver.generate_initial_datum(
        matrices, reference, amplitude=spec.amplitude, seed=spec.seed, order=spec.order
    )
    return matrices, reference, cert, datum


def _fit(scenario, times, values) -> tuple:
    """(alpha, eta, r_squared) of the decay fit after the first round trip, or NaNs if it fails."""
    try:
        return solver.fit_decay(times, values, t_min=solver.round_trip_time(scenario.params))
    except (NonPositiveValues, ValidationError):
        return (float("nan"),) * 3


def _fit_summary(scenario, traj, extra=None) -> str:
    nan = float("nan")
    # every command passes its certificate to the solver, so traj.lyap is recorded
    rows = [(label, *_fit(scenario, traj.times, values))
            for label, values in (("lyapunov", traj.lyap), ("h1_sq", traj.h1**2))]
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
    traj, pose = reconstruct.run_pipeline(scenario.sim, matrices, reference, datum, cert=cert)

    files = {
        "trajectory": solver.trajectory_to_csv(traj),
        "pose-residuals": reconstruct.pose_residuals_to_csv(pose),
    }
    for i, idx in enumerate(pose.indices):
        files[f"pose-{idx:05d}"] = reconstruct.pose_snapshot_to_csv(pose.snapshots, i)
    alpha_obs, _, r2_obs = _fit(scenario, pose.times, pose.observable)
    extra = {
        "roundtrip_sup_error": pose.roundtrip_error,
        "quaternion_norm_defect": pose.norm_defect,
        "centerline_route_gap": pose.route_gap,
        "observable_decay_rate": alpha_obs,
        "observable_fit_r2": r2_obs,
    }
    files["reconstruction"] = _fit_summary(scenario, traj, extra)
    return EXIT_OK, files


_SWEEP_PATHS = {
    "mu1": "params.mu1",
    "mu2": "params.mu2",
    "amplitude": "datum.amplitude",
    "N": "sim.n_cells",
}


def _sweep_row(scenario, axis, value) -> tuple:
    """One row of the sweep table: value, C_kappa, cert_valid, alpha, status."""
    c_kappa, valid, alpha, status = float("nan"), 0, float("nan"), "ok"
    try:
        scenario = scenarios.apply_override(scenario, f"{_SWEEP_PATHS[axis]}={value!r}")
        matrices, reference, cert, datum = _prepare_run(scenario)
        c_kappa, valid = matrices.reflection_bound, int(cert.valid)
        traj = solver.simulate(scenario.sim, matrices, reference, datum, cert=cert, lyap_order=1)
        alpha, _, _ = _fit(scenario, traj.times, traj.lyap)
    except BeamstabError as exc:
        status = f"{type(exc).__name__}: {exc}"
    # an N is written as its decimal text: %.17g would round one beyond 2**53
    return str(value) if axis == "N" else value, c_kappa, valid, alpha, status


def cmd_sweep(scenario, args) -> tuple[int, dict[str, str]]:
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
        # an int is finite; one beyond int64 fails in apply_override, on its own row
        if isinstance(v, float) and not math.isfinite(v):
            raise ScenarioError(f"sweep values must be finite, got {v}")

    rows = []
    for v in values:
        start = time.perf_counter()
        row = _sweep_row(scenario, args.axis, v)
        print(f"{args.axis} = {v}: {row[-1]} in {time.perf_counter() - start:.3f} s")
        rows.append(row)
    table = csv_table(["value", "C_kappa", "cert_valid", "alpha", "status"], rows)
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
    common(sub.add_parser("dump-matrices", help="write all derived matrices as CSV"))
    return parser


_COMMANDS = {
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "sweep": cmd_sweep,
    "dump-matrices": cmd_dump_matrices,
}


def _cannot_write(path: Path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
    return EXIT_VALIDATION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = scenarios.load_scenario(args.scenario)
        for item in args.override:
            scenario = scenarios.apply_override(scenario, item)
        out = Path(args.out or os.environ.get("BEAMSTAB_OUT") or "beamstab-out")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write(out, exc)
        code, files = _COMMANDS[args.command](scenario, args)
        echo = "".join(f"# {k} = {v}\n" for k, v in scenarios.header_echo(scenario).items())
        for suffix, text in files.items():
            path = out / f"{scenario.name}-{suffix}.csv"
            # a file is written chunk by chunk, the echo first: a finished
            # text is one chunk, and certify's report comes in blocks of rows
            # as they are formatted, so no whole copy of it is ever held
            try:
                with path.open("w") as fh:
                    fh.write(echo)
                    for chunk in (text,) if isinstance(text, str) else text:
                        fh.write(chunk)
            except OSError as exc:
                return _cannot_write(path, exc)
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
