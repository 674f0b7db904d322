import math
from dataclasses import replace

import numpy as np
import pytest

from beamstab.errors import (
    BlowupDetected,
    CFLViolation,
    NonPositiveValues,
    ValidationError,
)
from beamstab import solver
from beamstab.fd import diff1, diff2, trapezoid
from beamstab.model import PrecurvedReference, StateField, curved_reference, g_diag, to_physical
from beamstab.params import derive_matrices
from beamstab.scenarios import PRESETS, build_reference, load_scenario
from beamstab.solver import (
    SimConfig,
    _boundary_residual,
    _couple,
    _pde_rhs,
    _upwind_gradient,
    energies,
    fit_decay,
    generate_initial_datum,
    lyapunov_value,
    simulate,
    snapshot_to_csv,
    sobolev_norms,
    time_step,
    trajectory_to_csv,
)
from conftest import curved_cases, linear, with_reflection


def null_coupling_reference(ref: PrecurvedReference) -> PrecurvedReference:
    """Reference with the lower-order coupling switched off (pure transport)."""
    return PrecurvedReference(
        grid=ref.grid,
        curvature=np.zeros_like(ref.curvature),
        coupling_char=np.zeros_like(ref.coupling_char),
    )


def test_coupling_equals_the_per_node_table(asym_params):
    # oracle: B(x) r(x) node by node from a per-node coupling table, as the
    # solver once applied it; the one 12x12 B must give the same bits
    rng = np.random.default_rng(8)
    for m, ref in curved_cases(asym_params, seed=8):
        r = rng.normal(size=(len(ref.grid), 12))
        table = np.broadcast_to(ref.coupling_char, (len(ref.grid), 12, 12))
        oracle = np.einsum("nij,nj->ni", table, r)
        coupling = _couple(ref, r)
        assert np.array_equal(coupling, oracle)


def smooth_mode_datum(ref, amplitude, seed=11):
    """Single low-frequency mode, order-0 compatible, exact H1 amplitude."""
    rng = np.random.default_rng(seed)
    xi = ref.grid / ref.grid[-1]
    coeffs = rng.normal(size=12)
    values = coeffs[None, :] * (np.sin(np.pi * xi) ** 2)[:, None]
    dx = ref.dx
    norm = np.sqrt(
        float(trapezoid((values**2).sum(1) + (diff1(values, dx, 0) ** 2).sum(1), dx))
    )
    values *= amplitude / norm
    return StateField(ref.grid, "physical", values, 0.0)


def test_config_validation():
    with pytest.raises(CFLViolation):
        SimConfig(n_cells=8).validate()
    with pytest.raises(CFLViolation):
        SimConfig(cfl=0.0).validate()
    with pytest.raises(CFLViolation):
        SimConfig(cfl=0.96).validate()
    with pytest.raises(CFLViolation):
        SimConfig(scheme="weno5").validate()
    SimConfig().validate()


def order1_residual(y0, matrices, reference):
    """Oracle: the order-1 compatibility residual of a physical datum.

    The datum is differentiated with the shared stencils, and the order-0
    boundary relations are checked on  y1 = L^{-1} f(L y0),  f the PDE
    right side with the centered gradient.
    """
    r0 = y0.values @ matrices.to_char.T
    grad = diff1(r0, y0.grid[1] - y0.grid[0], axis=0)
    rt = _pde_rhs(grad, _couple(reference, r0), g_diag(matrices, r0), matrices)
    y1 = StateField(y0.grid, "physical", rt @ matrices.from_char.T, 0.0)
    return _boundary_residual(y1, matrices)


class TestCompatibility:
    def test_zero_datum(self, toy_matrices, toy_reference):
        zero = StateField(toy_reference.grid, "physical",
                          np.zeros((len(toy_reference.grid), 12)), 0.0)
        assert _boundary_residual(zero, toy_matrices) == 0.0
        assert order1_residual(zero, toy_matrices, toy_reference) == 0.0

    def test_unit_velocity_at_clamp(self, toy_matrices, toy_reference):
        values = np.zeros((len(toy_reference.grid), 12))
        values[-1, 0] = 1.0
        state = StateField(toy_reference.grid, "physical", values, 0.0)
        assert _boundary_residual(state, toy_matrices) == 1.0

    def test_generated_datum_order0(self, toy_matrices, toy_reference):
        datum = generate_initial_datum(toy_matrices, toy_reference, 0.5, seed=1, order=0)
        assert _boundary_residual(datum, toy_matrices) < 1e-10

    def test_generated_datum_order1(self, toy_matrices, toy_reference):
        datum = generate_initial_datum(toy_matrices, toy_reference, 0.5, seed=2, order=1)
        assert _boundary_residual(datum, toy_matrices) < 1e-8
        assert order1_residual(datum, toy_matrices, toy_reference) < 1e-8

    def test_simulate_rejects_an_incompatible_or_diagonal_datum(self, toy_matrices,
                                                                 toy_reference):
        cfg = SimConfig(n_cells=len(toy_reference.grid) - 1, t_end=0.01)
        datum = generate_initial_datum(toy_matrices, toy_reference, 0.5, seed=1, order=0)
        diagonal = StateField(datum.grid, "diagonal", datum.values @ toy_matrices.to_char.T)
        with pytest.raises(ValidationError, match="expects a physical datum"):
            simulate(cfg, toy_matrices, toy_reference, diagonal)
        values = datum.values.copy()
        values[-1, 0] += 1e-6
        with pytest.raises(ValidationError, match="order-0 compatibility: residual 1e-06"):
            simulate(cfg, toy_matrices, toy_reference, StateField(datum.grid, "physical", values))


class TestInitialDatum:
    def test_scaling_is_linear(self, toy_matrices, toy_reference):
        d1 = generate_initial_datum(toy_matrices, toy_reference, 0.01, seed=9, order=0)
        d2 = generate_initial_datum(toy_matrices, toy_reference, 0.02, seed=9, order=0)
        assert np.array_equal(d2.values, 2.0 * d1.values)
        assert _boundary_residual(d2, toy_matrices) < 1e-12

    def test_determinism_and_seeds(self, toy_matrices, toy_reference):
        a = generate_initial_datum(toy_matrices, toy_reference, 0.1, seed=4, order=1)
        b = generate_initial_datum(toy_matrices, toy_reference, 0.1, seed=4, order=1)
        c = generate_initial_datum(toy_matrices, toy_reference, 0.1, seed=5, order=1)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_h1_amplitude(self, toy_matrices, toy_reference):
        datum = generate_initial_datum(toy_matrices, toy_reference, 0.37, seed=6, order=1)
        assert sobolev_norms(datum.values, toy_reference.dx, 1) == pytest.approx(0.37, rel=1e-12)

    def test_zero_amplitude_gives_zero_field(self, toy_matrices, toy_reference):
        datum = generate_initial_datum(toy_matrices, toy_reference, 0.0, seed=6, order=1)
        assert np.all(datum.values == 0.0)

    def test_negative_amplitude_rejected(self, toy_matrices, toy_reference):
        with pytest.raises(ValidationError):
            generate_initial_datum(toy_matrices, toy_reference, -1.0, seed=6, order=1)


class TestEnergies:
    def test_zero(self, toy_matrices, toy_reference):
        zero = StateField(toy_reference.grid, "diagonal",
                          np.zeros((len(toy_reference.grid), 12)), 0.0)
        assert energies(zero, toy_matrices) == (0.0, 0.0)

    def test_representations_agree(self, asym_matrices, toy_reference):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(len(toy_reference.grid), 12))
        state = StateField(toy_reference.grid, "diagonal", values @ asym_matrices.to_char.T, 0.0)
        e_p, e_d = energies(state, asym_matrices)
        assert abs(e_p - e_d) <= 1e-12 * e_p

    def test_constant_unit_velocity(self, toy_params, toy_matrices, toy_reference):
        values = np.zeros((len(toy_reference.grid), 12))
        values[:, 0] = 1.0
        state = StateField(toy_reference.grid, "diagonal", values @ toy_matrices.to_char.T, 0.0)
        e_p, _ = energies(state, toy_matrices)
        expected = toy_params.rho * toy_params.area * toy_params.length
        assert e_p == pytest.approx(expected, rel=1e-14)

    def test_physical_state_rejected(self, toy_matrices, toy_reference):
        state = StateField(toy_reference.grid, "physical",
                           np.zeros((len(toy_reference.grid), 12)), 0.0)
        with pytest.raises(ValidationError, match="diagonal"):
            energies(state, toy_matrices)
        with pytest.raises(ValidationError, match="diagonal"):
            snapshot_to_csv(state, toy_matrices)


class TestSimulate:
    def test_zero_state_invariant(self, toy_matrices, toy_reference):
        zero = StateField(toy_reference.grid, "physical",
                          np.zeros((len(toy_reference.grid), 12)), 0.0)
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=0.5, output_stride=4, store_snapshots=True)
        traj = simulate(cfg, toy_matrices, toy_reference, zero)
        assert np.all(traj.energy_char == 0.0)
        for snap in traj.snapshots:
            assert np.all(snap.values == 0.0)

    def test_incompatible_datum_rejected(self, toy_matrices, toy_reference):
        values = np.zeros((len(toy_reference.grid), 12))
        values[-1, 0] = 1.0
        bad = StateField(toy_reference.grid, "physical", values, 0.0)
        with pytest.raises(ValidationError):
            simulate(SimConfig(n_cells=32), toy_matrices, toy_reference, bad)

    def test_boundary_traces_exact(self, toy_matrices, toy_reference):
        datum = generate_initial_datum(toy_matrices, toy_reference, 1e-2, seed=8, order=1)
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=1.0, output_stride=3, store_snapshots=True)
        traj = simulate(cfg, toy_matrices, toy_reference, datum)
        r = np.stack([snap.values for snap in traj.snapshots])
        kd = toy_matrices.kappa
        assert np.abs(r[:, 0, 6:] - kd[None, :] * r[:, 0, :6]).max() < 1e-12
        assert np.abs(r[:, -1, :6] + r[:, -1, 6:]).max() < 1e-12
        # the recorded traces are the outgoing components of the same records
        assert np.array_equal(traj.trace_minus_0, r[:, 0, :6])
        assert np.array_equal(traj.trace_plus_L, r[:, -1, 6:])

    @pytest.mark.parametrize("stride", [1, 3, 4, 7, 10**9])
    def test_records_fill_their_arrays(self, toy_matrices, toy_reference, stride):
        """One row per record, at t = 0, every stride-th step and the last one,
        each row the value of its own recorded state, ragged end or not."""
        from beamstab.certificate import build_certificate

        cert = build_certificate(toy_matrices, toy_reference, m=1, phi0=1.0, phiL=None)
        datum = generate_initial_datum(toy_matrices, toy_reference, 1e-2, seed=8, order=1)
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=0.7, output_stride=stride,
                        store_snapshots=True)
        traj = simulate(cfg, toy_matrices, toy_reference, datum, cert=cert, lyap_order=2)
        dt = 0.7 / traj.steps
        steps = sorted({*range(0, traj.steps + 1, min(stride, traj.steps)), traj.steps})
        assert traj.times.tolist() == [step * dt for step in steps]
        dx = toy_reference.dx
        for k, snap in enumerate(traj.snapshots):
            y = snap.values @ toy_matrices.from_char.T
            assert (traj.energy_phys[k], traj.energy_char[k]) == energies(snap, toy_matrices)
            assert traj.h1[k] == sobolev_norms(y, dx, 1)
            assert traj.h2[k] == sobolev_norms(y, dx, 2)
            assert traj.lyap[k] == lyapunov_value(snap, cert, toy_matrices, toy_reference, k=2)
        assert len(traj.snapshots) == len(steps)
        for series in (traj.energy_phys, traj.energy_char, traj.h1, traj.h2, traj.lyap,
                       traj.trace_minus_0, traj.trace_plus_L):
            assert len(series) == len(steps)

    def test_h1_and_h2_share_one_first_difference(self, toy_matrices, toy_reference,
                                                  monkeypatch):
        """At lyap_order 2 a record takes diff1(y) once for H1 and H2, and
        each norm keeps the bits of its own sums in their own order."""
        from beamstab.certificate import build_certificate

        def norm(values, dx, order):  # oracle: each norm with its own first difference
            total = (values**2).sum(axis=1) + (diff1(values, dx, axis=0) ** 2).sum(axis=1)
            if order == 2:
                total = total + (diff2(values, dx) ** 2).sum(axis=1)
            return math.sqrt(float(trapezoid(total, dx)))

        cert = build_certificate(toy_matrices, toy_reference, m=1, phi0=1.0, phiL=None)
        datum = generate_initial_datum(toy_matrices, toy_reference, 1e-2, seed=8, order=1)
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=0.7, output_stride=3, store_snapshots=True)
        traj = simulate(cfg, toy_matrices, toy_reference, datum, cert=cert, lyap_order=2)
        dx = toy_reference.dx
        for k, snap in enumerate(traj.snapshots):
            y = to_physical(snap, toy_matrices).values
            assert traj.h1[k].hex() == norm(y, dx, 1).hex()
            assert traj.h2[k].hex() == norm(y, dx, 2).hex()
            assert sobolev_norms(y, dx, 2).hex() == traj.h2[k].hex()
        calls = []
        monkeypatch.setattr(solver, "diff1", lambda *a, **k: calls.append(a) or diff1(*a, **k))
        assert solver._sobolev_norms(y, dx, 2) == [traj.h1[-1], traj.h2[-1]]
        assert len(calls) == 1

    def test_energy_monotone_small_amplitude(self, toy_matrices, toy_reference):
        datum = generate_initial_datum(toy_matrices, toy_reference, 1e-2, seed=8, order=1)
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=2.0, output_stride=1)
        traj = simulate(cfg, toy_matrices, toy_reference, datum)
        e = traj.energy_char
        assert np.all(e[1:] <= e[:-1] * (1.0 + 1e-6))

    def test_blowup_detection(self, toy_matrices, toy_reference):
        datum = generate_initial_datum(toy_matrices, toy_reference, 1e-2, seed=8, order=1)
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=1.0, blowup_threshold=1e-9)
        with pytest.raises(BlowupDetected) as err:
            simulate(cfg, toy_matrices, toy_reference, datum)
        assert err.value.time > 0.0

    def test_step_cap(self, toy_matrices, toy_reference):
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=1.0, step_cap=3)
        zero = StateField(toy_reference.grid, "physical",
                          np.zeros((len(toy_reference.grid), 12)), 0.0)
        with pytest.raises(CFLViolation):
            simulate(cfg, toy_matrices, toy_reference, zero)

    @pytest.mark.parametrize("with_cert", [True, False])
    @pytest.mark.parametrize("lyap_order", [1, 2])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_records_are_the_public_functions_of_the_state(
        self, toy_params, toy_matrices, stride, lyap_order, with_cert
    ):
        """Each record reads the terms the step formed for its state, and gets
        the bits of energies, sobolev_norms and lyapunov_value on that state;
        on_record receives the state's physical values."""
        from beamstab.certificate import build_certificate

        ref = curved_reference(toy_params, 32, np.array([1.0, 0.0, 0.5]), toy_matrices)
        cert = build_certificate(toy_matrices, ref, m=1, phi0=1.0, phiL=None) if with_cert else None
        datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=8, order=1)
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=0.4, output_stride=stride,
                        store_snapshots=True)
        handed = []
        traj = simulate(cfg, toy_matrices, ref, datum, cert=cert, lyap_order=lyap_order,
                        on_record=handed.append)
        assert (traj.lyap is None) == (not with_cert)
        assert (traj.h2 is None) == (lyap_order == 1)
        dx = ref.dx
        for k, snap in enumerate(traj.snapshots):
            y = to_physical(snap, toy_matrices)
            assert handed[k].repr == "physical" and handed[k].time == snap.time
            assert np.array_equal(handed[k].values, y.values)
            assert (traj.energy_phys[k], traj.energy_char[k]) == energies(snap, toy_matrices)
            assert traj.h1[k] == sobolev_norms(y.values, dx, 1)
            if lyap_order == 2:
                assert traj.h2[k] == sobolev_norms(y.values, dx, 2)
            if with_cert:
                assert traj.lyap[k] == lyapunov_value(snap, cert, toy_matrices, ref, k=lyap_order)
        assert len(handed) == len(traj.snapshots) == len(traj.times)

    def test_grid_mismatch(self, toy_matrices, toy_reference):
        zero = StateField(toy_reference.grid, "physical",
                          np.zeros((len(toy_reference.grid), 12)), 0.0)
        with pytest.raises(ValidationError):
            simulate(SimConfig(n_cells=64), toy_matrices, toy_reference, zero)

    def test_grid_must_span_the_beam(self, toy_matrices, toy_reference):
        # the step count assumes dx = L / n_cells
        n = len(toy_reference.grid) - 1
        zero = StateField(2.0 * toy_reference.grid, "physical", np.zeros((n + 1, 12)), 0.0)
        with pytest.raises(ValidationError, match="beam length"):
            simulate(SimConfig(n_cells=n), toy_matrices, toy_reference, zero)


def test_time_step_sees_the_coupling():
    """dt rho(B) <= 1/4 bounds the step only where the coupling is stiff: no
    preset changes its step count, and a stiff twist shortens the step."""
    for name in PRESETS:
        scenario = load_scenario(name)
        matrices = derive_matrices(scenario.params)
        cfg = scenario.sim
        dt_transport = cfg.cfl * (scenario.params.length / cfg.n_cells) / np.abs(
            matrices.wave_speeds
        ).max()
        _, n_steps = time_step(cfg, matrices, build_reference(scenario))
        assert n_steps == math.ceil(cfg.t_end / dt_transport), name

    scenario = load_scenario("helical")
    matrices = derive_matrices(scenario.params)
    cfg = replace(scenario.sim, n_cells=32, t_end=0.5)
    straight = curved_reference(scenario.params, 32, np.zeros(3), matrices)
    _, transport_steps = time_step(cfg, matrices, straight)
    for twist in (10.0, 1e3):
        ref = curved_reference(scenario.params, 32, np.array([twist, 0.0, 0.0]), matrices)
        rho = np.abs(np.linalg.eigvals(ref.coupling_char)).max()
        dt, n_steps = time_step(cfg, matrices, ref)
        assert dt * rho <= 0.25 and n_steps > transport_steps
    ref = curved_reference(scenario.params, 32, np.array([1e150, 0.0, 0.0]), matrices)
    with pytest.raises(CFLViolation) as err:
        time_step(cfg, matrices, ref)
    assert "reference.curvature" in str(err.value) and "sim.step_cap" in str(err.value)


def test_transport_pulse_method_of_characteristics(toy_params):
    """Decoupled single pulse: exact reflection with sign flip, then absorption."""
    n = 256
    matrices = with_reflection(derive_matrices(toy_params), np.zeros(6))
    ref = null_coupling_reference(curved_reference(toy_params, n, np.zeros(3)))
    x = ref.grid
    x0, width = 0.35, 0.2

    def pulse(z):
        inside = np.abs(z - x0) < width
        safe = np.where(inside, 1.0 - ((z - x0) / width) ** 2, 1.0)
        return np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)

    r0 = np.zeros((n + 1, 12))
    r0[:, 6] = pulse(x)
    y0 = StateField(x, "physical", r0 @ matrices.from_char.T, 0.0)
    speed = matrices.wave_speeds[6]

    for t_probe in (0.25, 0.75):
        cfg = SimConfig(n_cells=n, cfl=0.95, t_end=t_probe, output_stride=10**9,
                        store_snapshots=True, scheme="upwind2")
        traj = simulate(cfg, linear(matrices), ref, y0)
        final = traj.snapshots[-1].values
        oracle = np.zeros_like(final)
        oracle[:, 6] = pulse(x - speed * t_probe)
        oracle[:, 0] = -pulse(2.0 * toy_params.length - x - speed * t_probe)
        l1_err = float(np.abs(final - oracle).sum()) * ref.dx
        assert l1_err < 5.0 * ref.dx * np.abs(pulse(x)).max()

    round_trip = 2.0 * toy_params.length / speed
    cfg = SimConfig(n_cells=n, cfl=0.95, t_end=1.4 * round_trip, output_stride=10**9,
                    store_snapshots=True, scheme="upwind2")
    traj = simulate(cfg, linear(matrices), ref, y0)
    mass = float(np.abs(traj.snapshots[-1].values).sum()) * ref.dx
    assert mass < 1e-6


def test_convergence_against_refined_reference(toy_params):
    """Halving dx shrinks the error vs a common fine run by the scheme order."""
    m = derive_matrices(toy_params)

    def terminal(n, scheme):
        ref = curved_reference(toy_params, n, np.zeros(3))
        datum = smooth_mode_datum(ref, 1e-2)
        cfg = SimConfig(n_cells=n, cfl=0.9, t_end=0.2, output_stride=10**9,
                        store_snapshots=True, scheme=scheme)
        return simulate(cfg, m, ref, datum).snapshots[-1].values

    for scheme, factor in (("upwind1", 1.8), ("upwind2", 3.5)):
        fine = terminal(512, scheme)
        err_coarse = np.sqrt(((terminal(64, scheme) - fine[::8]) ** 2).mean())
        err_half = np.sqrt(((terminal(128, scheme) - fine[::4]) ** 2).mean())
        assert err_coarse / err_half >= factor


@pytest.mark.parametrize("scheme", ["upwind1", "upwind2"])
def test_upwind_inflow_rows_are_one_sided_differences(scheme):
    # oracle: the first-order one-sided difference into the grid at each
    # family's inflow node, right-movers (columns 6:) at x = 0 and
    # left-movers (columns :6) at x = L
    r = np.random.default_rng(5).standard_normal((17, 12))
    dx = 0.0625
    out = _upwind_gradient(r, dx, scheme)
    assert out[0, 6:].tobytes() == ((r[1, 6:] - r[0, 6:]) / dx).tobytes()
    assert out[-1, :6].tobytes() == ((r[-1, :6] - r[-2, :6]) / dx).tobytes()


def test_nonlinearity_onset_quadratic(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 64, np.zeros(3))

    def deviation(amplitude):
        datum = generate_initial_datum(m, ref, amplitude, seed=3, order=1)
        cfg = SimConfig(n_cells=64, cfl=0.9, t_end=1.0, output_stride=8, store_snapshots=True)
        full = simulate(cfg, m, ref, datum)
        lin = simulate(cfg, linear(m), ref, datum)
        return max(
            float(np.sqrt(((a.values - b.values) ** 2).mean()))
            for a, b in zip(full.snapshots, lin.snapshots)
        )

    ratio = deviation(1e-2) / deviation(1e-3)
    assert 70.0 <= ratio <= 130.0


class TestLyapunovValue:
    def test_zero(self, toy_params, toy_matrices, toy_reference):
        from beamstab.certificate import build_certificate

        cert = build_certificate(toy_matrices, toy_reference, m=1, phi0=1.0, phiL=None)
        zero = StateField(toy_reference.grid, "diagonal",
                          np.zeros((len(toy_reference.grid), 12)), 0.0)
        assert lyapunov_value(zero, cert, toy_matrices, toy_reference, k=1) == 0.0
        assert lyapunov_value(zero, cert, toy_matrices, toy_reference, k=2) == 0.0

    def test_decreasing_along_simulation(self, toy_params, toy_matrices):
        from beamstab.certificate import build_certificate

        ref = curved_reference(toy_params, 64, np.zeros(3))
        cert = build_certificate(toy_matrices, ref, m=1, phi0=1.0, phiL=None)
        datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=12, order=1)
        cfg = SimConfig(n_cells=64, cfl=0.9, t_end=5.0, output_stride=8)
        traj = simulate(cfg, toy_matrices, ref, datum, cert=cert, lyap_order=2)
        logs = np.log(traj.lyap)
        # allow early transients, require overall decreasing trend afterwards
        after = logs[traj.times >= 1.0]
        assert after[-1] < after[0]
        alpha, _, _ = fit_decay(traj.times, traj.lyap, t_min=1.0)
        assert alpha > 0.0
        assert traj.h2 is not None  # k = 2 records the H2 norm


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 200)
        alpha, eta, r2 = fit_decay(t, np.exp(-0.3 * t))
        assert alpha == pytest.approx(0.3, abs=1e-10)
        assert eta == pytest.approx(1.0, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_prefactor(self):
        t = np.linspace(0.0, 10.0, 100)
        alpha, eta, _ = fit_decay(t, 5.0 * np.exp(-0.3 * t))
        assert alpha == pytest.approx(0.3, abs=1e-10)
        assert eta == pytest.approx(5.0, rel=1e-10)

    def test_window(self):
        t = np.linspace(0.0, 10.0, 100)
        v = np.where(t < 2.0, 1.0, np.exp(-0.5 * (t - 2.0)))
        alpha, _, _ = fit_decay(t, v, t_min=2.0)
        assert alpha == pytest.approx(0.5, abs=1e-10)

    def test_rejects_nonpositive(self):
        t = np.linspace(0.0, 1.0, 20)
        with pytest.raises(NonPositiveValues):
            fit_decay(t, np.linspace(1.0, -0.1, 20))

    def test_rejects_short(self):
        with pytest.raises(ValidationError):
            fit_decay(np.linspace(0, 1, 5), np.ones(5))


def test_csv_outputs(toy_matrices, toy_reference):
    datum = generate_initial_datum(toy_matrices, toy_reference, 1e-2, seed=8, order=1)
    cfg = SimConfig(n_cells=32, cfl=0.9, t_end=0.5, output_stride=4, store_snapshots=True)
    traj = simulate(cfg, toy_matrices, toy_reference, datum)
    text = trajectory_to_csv(traj)
    echo = ["# n_cells = 32", "# cfl = 0.9", "# t_end = 0.5", "# output_stride = 4",
            f"# scheme = {cfg.scheme}", f"# steps = {traj.steps}"]
    assert text.splitlines()[:6] == echo
    assert text.splitlines()[6].startswith("t,")
    snap_text = snapshot_to_csv(traj.snapshots[-1], toy_matrices)
    header = snap_text.splitlines()[1].split(",")
    assert header[:2] == ["x", "r1"] and header[-1] == "y12"
    # physical and characteristic columns are consistent
    row = np.array([float(v) for v in snap_text.splitlines()[2].split(",")])
    r = row[1:13]
    y = row[13:25]
    assert np.abs(r @ toy_matrices.from_char.T - y).max() < 1e-12
