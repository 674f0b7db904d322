"""Per-layer timings: one public call at a time, on a workload's own inputs.

The inputs are what the workload's command builds from its scenario (seed
included): the derived matrices, the reference, the certificate, the
initial datum, and a short history simulated from that datum.  The
history (``HISTORY_STEPS`` steps, every state stored, no Lyapunov
recording) stands in for the command's trajectory where a layer needs
one: decay fit, CSV writers and the reconstruction layers.  Each call is
repeated for ``BUDGET_S`` seconds (at least ``MIN_REPS`` times) and the
median duration is reported.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from beamstab import certificate, fd, model, reconstruct, scenarios, solver
from beamstab.params import derive_matrices

HISTORY_STEPS = 16
MIN_REPS = 3
BUDGET_S = 0.1
# Steps timed for solver.step_us: about 32k node-steps, whatever N is.
STEP_NODE_STEPS = 32768


def _median_ns(fn) -> float:
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start < BUDGET_S:
        t = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t)
    return statistics.median(samples)


def _short(cfg, steps: int, dx: float, speeds: np.ndarray, **changes):
    """``cfg`` cut to ``steps`` time steps of the solver's own step size."""
    dt_max = cfg.cfl * dx / float(np.abs(speeds).max())
    return replace(cfg, t_end=steps * dt_max, **changes)


def load(scenario_name: str, overrides) -> scenarios.Scenario:
    scenario = scenarios.load_scenario(scenario_name)
    for item in overrides:
        scenario = scenarios.apply_override(scenario, item)
    return scenario


def measure(command: str, scenario_name: str, overrides) -> dict[str, tuple[float, str]]:
    """{metric name: (value, unit)} for every per-layer timing."""
    scenario = load(scenario_name, overrides)
    spec = scenario.certificate
    lyap_order = 1 if command == "reconstruct" else scenario.datum.order + 1
    matrices = derive_matrices(scenario.params)
    reference = scenarios.build_reference(scenario)
    cert = certificate.build_certificate(
        matrices, reference, m=spec.m, phi0=spec.phi0, phiL=spec.phiL
    )

    def datum():
        return solver.generate_initial_datum(
            matrices, reference, amplitude=scenario.datum.amplitude,
            seed=scenario.datum.seed, order=scenario.datum.order,
        )

    y0 = datum()
    dx = reference.dx
    r = y0.values @ matrices.to_char.T
    state = model.StateField(reference.grid, "diagonal", r, 0.0)
    speeds = matrices.wave_speeds

    history = solver.simulate(
        _short(scenario.sim, HISTORY_STEPS, dx, speeds, output_stride=1, store_snapshots=True),
        matrices, reference, y0, cert=None, lyap_order=1,
    )
    states = [model.to_physical(s, matrices) for s in history.snapshots]
    h_p = model.reference_centerline(reference)[-1]
    pose = reconstruct.reconstruct_rotation(states, reference, reference.rotation[-1])
    # initial centerline as the CLI builds it: space quadrature from the clamp
    tangent0 = np.einsum("nij,nj->ni", pose.R[0], states[0].values[:, 6:9] + model.E1)
    seg = 0.5 * dx * (tangent0[1:] + tangent0[:-1])
    p0 = h_p[None, :] - np.concatenate(
        [np.cumsum(seg[::-1], axis=0)[::-1], np.zeros((1, 3))], axis=0
    )
    pose = reconstruct.reconstruct_centerline(states, pose, p0, h_p)
    alpha = certificate.decay_rate_estimate(cert, matrices, reference, delta=0.0)

    steps = max(8, STEP_NODE_STEPS // scenario.sim.n_cells)
    step_cfg = _short(scenario.sim, steps, dx, speeds, store_snapshots=False)
    step_cfg = replace(step_cfg, output_stride=steps + 1)
    step_traj = solver.simulate(step_cfg, matrices, reference, y0, cert=None, lyap_order=1)

    us, ms = ("us", 1e-3), ("ms", 1e-6)
    calls = {
        "params.derive_matrices_us": (us, lambda: derive_matrices(scenario.params)),
        "scenarios.load_us": (us, lambda: load(scenario_name, overrides)),
        "scenarios.build_reference_ms": (ms, lambda: scenarios.build_reference(scenario)),
        "model.g_diag_us": (us, lambda: model.g_diag(matrices, r)),
        "model.g_diag_pair_us": (us, lambda: model.g_diag_pair(matrices, r, r)),
        "fd.diff1_us": (us, lambda: fd.diff1(y0.values, dx)),
        "solver.lyapunov_us": (
            us, lambda: solver.lyapunov_value(state, cert, matrices, reference, k=lyap_order)
        ),
        "solver.sobolev_us": (us, lambda: solver.sobolev_norms(y0.values, dx, lyap_order)),
        "solver.energies_us": (us, lambda: solver.energies(state, matrices)),
        "solver.datum_ms": (ms, datum),
        "solver.fit_decay_us": (us, lambda: solver.fit_decay(history.times, history.h1**2)),
        "solver.trajectory_csv_ms": (ms, lambda: solver.trajectory_to_csv(history)),
        "solver.snapshot_csv_ms": (
            ms, lambda: solver.snapshot_to_csv(history.final_state, matrices)
        ),
        "certificate.build_ms": (
            ms,
            lambda: certificate.build_certificate(
                matrices, reference, m=spec.m, phi0=spec.phi0, phiL=spec.phiL
            ),
        ),
        "certificate.verify_ms": (
            ms, lambda: certificate.verify_certificate(cert, matrices, reference)
        ),
        "certificate.theta_ms": (
            ms, lambda: certificate.theta_functions(matrices, reference.curvature)
        ),
        "certificate.decay_estimate_ms": (
            ms, lambda: certificate.decay_rate_estimate(cert, matrices, reference, delta=0.0)
        ),
        "certificate.csv_ms": (
            ms,
            lambda: certificate.certificate_to_csv(cert, matrices, reference, alpha_estimate=alpha),
        ),
        "reconstruct.rotation_ms": (
            ms, lambda: reconstruct.reconstruct_rotation(states, reference, reference.rotation[-1])
        ),
        "reconstruct.centerline_ms": (
            ms, lambda: reconstruct.reconstruct_centerline(states, pose, p0, h_p)
        ),
        "reconstruct.observable_ms": (ms, lambda: reconstruct.decay_observable(pose, states)),
        "reconstruct.csv_ms": (
            ms, lambda: reconstruct.pose_snapshot_to_csv(pose, len(states) - 1)
        ),
        "model.pose_to_intrinsic_ms": (
            ms, lambda: model.strains_velocities_from_pose(pose, reference)
        ),
        "model.to_physical_ms": (ms, lambda: model.to_physical(history.final_state, matrices)),
    }
    out = {name: (_median_ns(fn) * scale, unit) for name, ((unit, scale), fn) in calls.items()}
    step_ns = _median_ns(
        lambda: solver.simulate(step_cfg, matrices, reference, y0, cert=None, lyap_order=1)
    )
    out["solver.step_us"] = (step_ns * 1e-3 / step_traj.steps, "us")
    return out
