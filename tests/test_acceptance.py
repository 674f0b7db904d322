"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools

import numpy as np
import pytest

from beamstab.certificate import build_certificate, theta_functions
from beamstab.fd import diff1, trapezoid
from beamstab.model import (
    PrecurvedReference,
    StateField,
    _strain_matrix,
    curved_reference,
    gbar,
)
from beamstab.params import derive_matrices, optimal_feedback
from beamstab.reconstruct import run_pipeline
from beamstab.scenarios import PRESETS, build_reference
from beamstab.solver import (
    SimConfig,
    fit_decay,
    generate_initial_datum,
    simulate,
    sobolev_norms,
)
from conftest import linear, random_params, with_reflection


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] criterion {num:2d} ({label}): FAIL")
                raise
            print(f"[ACCEPTANCE] criterion {num:2d} ({label}): PASS")
            return result

        return run

    return wrap


@pytest.fixture(scope="module")
def toy_setup():
    scenario = PRESETS["straight-toy"]
    matrices = derive_matrices(scenario.params)
    reference = build_reference(scenario)
    return scenario, matrices, reference


@pytest.fixture(scope="module")
def toy_run(toy_setup):
    """Shared reference run: N = 256, amplitude 1e-2, ten round trips."""
    scenario, matrices, reference = toy_setup
    cert = build_certificate(matrices, reference, m=1, phi0=1.0, phiL=None)
    datum = generate_initial_datum(matrices, reference, 1e-2, seed=42, order=1)
    cfg = SimConfig(n_cells=256, cfl=0.9, t_end=10.0, output_stride=1)
    traj = simulate(cfg, matrices, reference, datum, cert=cert, lyap_order=1)
    return traj, cert


@criterion(1, "algebraic identity suite")
def test_criterion_1_algebraic_identities():
    rng = np.random.default_rng(2024)
    eye12 = np.eye(12)
    for trial in range(100):
        params = random_params(rng)
        m = derive_matrices(params)

        signed_speed = np.diag(np.concatenate([-m.speed, m.speed]))
        residual = m.flux - m.from_char @ signed_speed @ m.to_char
        assert np.abs(residual).sum(axis=1).max() < 1e-12

        qd_product = m.from_char.T @ np.diag(m.energy_phys) @ m.from_char
        half_mass = 0.5 * np.diag(np.concatenate([m.mass, m.mass]))
        assert np.abs(qd_product - half_mass).max() < 1e-12
        assert np.abs(np.diag(m.energy_char) - qd_product).max() < 1e-12

        assert np.all(np.abs(m.kappa) < 1.0)

        curv = rng.normal(size=3)
        ref = curved_reference(params, 64, curv)
        qd = np.diag(m.energy_char)
        dm = m.mass * m.speed
        prod = qd @ ref.coupling_char
        assert np.abs(prod + prod.T).max() < 1e-12
        quarter = 0.25 * _strain_matrix(ref.curvature) * dm[None, :]
        sym = quarter + quarter.T
        skew = quarter - quarter.T
        pattern = np.block([[-skew, sym], [-sym, skew]])
        assert np.abs(prod - pattern).max() < 1e-12

        trace = abs(np.trace(ref.coupling_char + ref.coupling_char.T))
        assert trace < 1e-12 * max(1.0, np.abs(ref.coupling_char).max())

        qp = m.energy_phys
        for _ in range(10):
            y = rng.normal(size=12)
            assert abs(float(np.dot(y * qp, gbar(m, y)))) <= 1e-12 * float(y @ y)


@criterion(2, "straight-beam closed forms")
def test_criterion_2_straight_closed_forms(toy_setup, asym_params):
    _, toy_matrices, _ = toy_setup
    steel = PRESETS["straight-steel"].params
    for params in (toy_matrices.params, asym_params, steel):
        m = derive_matrices(params)
        theta, q1, _ = theta_functions(m, np.zeros(3))
        lam = m.wave_speeds[6:]
        j = m.inertia
        expected_theta = np.array(
            [0.0, 1.0, 1.0, 0.0,
             params.area * lam[2] / (lam[0] * j[1]),
             params.area * lam[1] / (lam[0] * j[2])]
        )
        assert np.abs(theta - expected_theta).max() < 1e-12 * max(1.0, expected_theta.max())
        expected_cq1 = max(
            1.0,
            params.area * np.sqrt(params.k3 * params.shear)
            / (params.moment2 * np.sqrt(params.young)),
            params.area * np.sqrt(params.k2 * params.shear)
            / (params.moment3 * np.sqrt(params.young)),
        )
        assert abs(q1 - expected_cq1) < 1e-12 * expected_cq1

        ref = curved_reference(params, 8, np.zeros(3))
        lam8 = np.sqrt(params.k2 * params.shear / params.rho)
        lam9 = np.sqrt(params.k3 * params.shear / params.rho)
        expected_norm = max(lam8, lam9, params.area / params.moment2 * lam9,
                            params.area / params.moment3 * lam8)
        norm = np.linalg.norm(ref.coupling_char, 2)
        assert abs(norm - expected_norm) < 1e-10 * max(1.0, expected_norm)


@criterion(3, "certificate validity on presets")
def test_criterion_3_certificates():
    for name in ("straight-toy", "straight-steel", "helical"):
        scenario = PRESETS[name]
        assert scenario.sim.n_cells == 256
        matrices = derive_matrices(scenario.params)
        reference = build_reference(scenario)
        cert = build_certificate(
            matrices, reference,
            m=scenario.certificate.m, phi0=scenario.certificate.phi0,
            phiL=scenario.certificate.phiL,
        )
        assert cert.valid, name
        assert np.all(cert.interior_margins < 0.0), name
        assert np.all(cert.boundary_margins_0 <= 0.0), name
        assert np.all(cert.boundary_margins_L <= 0.0), name
    # constant-weight control case fails as predicted
    scenario = PRESETS["straight-toy"]
    matrices = derive_matrices(scenario.params)
    reference = build_reference(scenario)
    control = build_certificate(matrices, reference, m=1, phi0=1.0, phiL=1.0)
    assert not control.valid
    assert control.interior_margins.max() >= 0.0


@criterion(4, "optimal feedback on a 50x50 log-grid")
def test_criterion_4_optimal_feedback(asym_params):
    for params in (PRESETS["straight-toy"].params, PRESETS["straight-steel"].params, asym_params):
        m = derive_matrices(params)
        b = m.mass * m.speed
        mu1, mu2 = optimal_feedback(params)

        def c_kappa(u1, u2):
            mu = np.array([u1] * 3 + [u2] * 3)
            return float(np.max(((b - mu) / (b + mu)) ** 2))

        best = c_kappa(mu1, mu2)
        scale1 = np.sqrt(b[:3].min() * b[:3].max())
        scale2 = np.sqrt(b[3:].min() * b[3:].max())
        grid = np.logspace(-2.0, 2.0, 50)
        values = np.array([[c_kappa(scale1 * g1, scale2 * g2) for g2 in grid] for g1 in grid])
        assert best <= values.min() + 1e-15


@criterion(5, "energy dissipation")
def test_criterion_5_energy_dissipation(toy_run, toy_setup):
    traj, _ = toy_run
    _, matrices, _ = toy_setup
    energy = traj.energy_char
    assert np.all(energy[1:] <= energy[:-1] * (1.0 + 1e-6))
    kd = matrices.kappa
    r = traj.final_state.values
    assert np.abs(r[0, 6:] - kd * r[0, :6]).max() <= 1e-12
    assert np.abs(r[-1, :6] + r[-1, 6:]).max() <= 1e-12


@criterion(6, "exponential decay and feedback comparison")
def test_criterion_6_exponential_decay(toy_run, toy_setup):
    traj, _ = toy_run
    scenario, matrices, reference = toy_setup
    round_trip = 1.0  # 2 L / lambda_7 = 2 / 2
    alpha_lyap, _, r2_lyap = fit_decay(traj.times, traj.lyap, t_min=round_trip)
    alpha_h1, _, r2_h1 = fit_decay(traj.times, traj.h1**2, t_min=round_trip)
    assert alpha_lyap > 0.0 and alpha_h1 > 0.0
    assert r2_lyap > 0.98 and r2_h1 > 0.98

    # transparent boundary (kappa = 0) decays at least as fast as the
    # reflection induced by mu = diag(M D) / 2, i.e. kappa = I/3
    datum = generate_initial_datum(matrices, reference, 1e-2, seed=42, order=1)
    cfg = SimConfig(n_cells=256, cfl=0.9, t_end=10.0, output_stride=4)
    alphas = {}
    for label, kd in (("transparent", np.zeros(6)), ("half-gain", np.full(6, 1.0 / 3.0))):
        m_k = with_reflection(matrices, kd)
        cert_k = build_certificate(m_k, reference, m=1, phi0=1.0, phiL=None)
        traj_k = simulate(cfg, m_k, reference, datum, cert=cert_k, lyap_order=1)
        alphas[label], _, _ = fit_decay(traj_k.times, traj_k.lyap, t_min=round_trip)
    assert alphas["transparent"] >= alphas["half-gain"]


def _smooth_mode_datum(ref, amplitude, seed=11):
    rng = np.random.default_rng(seed)
    xi = ref.grid / ref.grid[-1]
    values = rng.normal(size=12)[None, :] * (np.sin(np.pi * xi) ** 2)[:, None]
    dx = ref.dx
    norm = np.sqrt(
        float(trapezoid((values**2).sum(1) + (diff1(values, dx, 0) ** 2).sum(1), dx))
    )
    return StateField(ref.grid, "physical", values * (amplitude / norm), 0.0)


@criterion(7, "terminal-state convergence orders")
def test_criterion_7_convergence_orders(toy_setup):
    scenario, matrices, _ = toy_setup

    def terminal(n, scheme):
        ref = curved_reference(scenario.params, n, np.zeros(3))
        datum = _smooth_mode_datum(ref, 1e-2)
        cfg = SimConfig(n_cells=n, cfl=0.9, t_end=0.2, output_stride=10**9,
                        store_snapshots=True, scheme=scheme)
        return simulate(cfg, matrices, ref, datum).snapshots[-1].values

    windows = {"upwind1": (0.8, 1.3), "upwind2": (1.6, 2.3)}
    for scheme, (lo, hi) in windows.items():
        u64, u128, u256 = (terminal(n, scheme) for n in (64, 128, 256))
        err1 = np.sqrt(((u64 - u128[::2]) ** 2).mean())
        err2 = np.sqrt(((u128 - u256[::2]) ** 2).mean())
        order = np.log2(err1 / err2)
        assert lo <= order <= hi, (scheme, order)


def _reconstruct_run(params, matrices, n, t_end, seed=5, stride=1):
    ref = curved_reference(params, n, np.zeros(3))
    datum = generate_initial_datum(matrices, ref, 1e-2, seed=seed, order=1)
    cfg = SimConfig(n_cells=n, cfl=0.9, t_end=t_end, output_stride=stride)
    _, pose = run_pipeline(cfg, matrices, ref, datum)
    return pose


@criterion(8, "pose reconstruction round trip")
def test_criterion_8_reconstruction(toy_setup):
    scenario, matrices, _ = toy_setup
    runs = {n: _reconstruct_run(scenario.params, matrices, n, t_end=0.5) for n in (64, 128)}

    sup_errors, rot_residuals, cl_residuals = {}, {}, {}
    for n, pose in runs.items():
        assert pose.norm_defect < 1e-10
        sup_errors[n] = pose.roundtrip_error
        rot_residuals[n] = float(pose.residual_rotation.max())
        cl_residuals[n] = float(pose.residual_centerline.max())

    for series in (sup_errors, rot_residuals, cl_residuals):
        factor = series[64] / series[128]
        assert 1.7 <= factor <= 2.3, series

    # decay witness of the reconstructed motion
    pose = _reconstruct_run(scenario.params, matrices, 96, t_end=6.0, stride=8)
    c2, _, _ = fit_decay(pose.times, pose.observable, t_min=1.0)
    assert c2 > 0.0


@criterion(9, "decoupled transport oracle")
def test_criterion_9_transport_oracle(toy_setup):
    scenario, matrices, _ = toy_setup
    n = 256
    m0 = with_reflection(matrices, np.zeros(6))
    base = curved_reference(scenario.params, n, np.zeros(3))
    ref = PrecurvedReference(
        grid=base.grid,
        curvature=np.zeros_like(base.curvature),
        coupling_char=np.zeros_like(base.coupling_char),
    )
    x = ref.grid
    x0, width = 0.35, 0.2

    def pulse(z):
        inside = np.abs(z - x0) < width
        safe = np.where(inside, 1.0 - ((z - x0) / width) ** 2, 1.0)
        return np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)

    r0 = np.zeros((n + 1, 12))
    r0[:, 6] = pulse(x)
    y0 = StateField(x, "physical", r0 @ m0.from_char.T, 0.0)
    speed = m0.wave_speeds[6]
    length = scenario.params.length

    for t_probe in (0.25, 0.75):
        cfg = SimConfig(n_cells=n, cfl=0.95, t_end=t_probe, output_stride=10**9,
                        store_snapshots=True, scheme="upwind2")
        traj = simulate(cfg, linear(m0), ref, y0)
        final = traj.snapshots[-1].values
        oracle = np.zeros_like(final)
        oracle[:, 6] = pulse(x - speed * t_probe)
        oracle[:, 0] = -pulse(2.0 * length - x - speed * t_probe)
        l1_error = float(np.abs(final - oracle).sum()) * ref.dx
        assert l1_error < 5.0 * ref.dx * 1.0  # sup|pulse| = 1

    cfg = SimConfig(n_cells=n, cfl=0.95, t_end=1.4 * (2.0 * length / speed),
                    output_stride=10**9, store_snapshots=True, scheme="upwind2")
    traj = simulate(cfg, linear(m0), ref, y0)
    mass = float(np.abs(traj.snapshots[-1].values).sum()) * ref.dx
    assert mass < 1e-6


@criterion(10, "quadratic nonlinearity scaling")
def test_criterion_10_quadratic_scaling(toy_setup):
    scenario, matrices, _ = toy_setup
    n = 64
    ref = curved_reference(scenario.params, n, np.zeros(3))

    def deviation(amplitude):
        datum = generate_initial_datum(matrices, ref, amplitude, seed=3, order=1)
        cfg = SimConfig(n_cells=n, cfl=0.9, t_end=1.0, output_stride=8, store_snapshots=True)
        full = simulate(cfg, matrices, ref, datum)
        lin = simulate(cfg, linear(matrices), ref, datum)
        return max(
            float(np.sqrt(((a.values - b.values) ** 2).mean()))
            for a, b in zip(full.snapshots, lin.snapshots)
        )

    ratio = deviation(1e-2) / deviation(1e-3)
    assert 70.0 <= ratio <= 130.0
