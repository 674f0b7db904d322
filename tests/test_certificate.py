import contextlib
import io
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamstab.certificate import (
    MARGIN_RTOL,
    _largest_decay_eigenvalue,
    _largest_of_halves,
    _row_scale,
    build_certificate,
    build_phi,
    decay_rate_estimate,
    lipschitz_bound,
    phi_window,
    theta_functions,
    theta_matrix,
    verify_certificate,
    certificate_csv_chunks,
    certificate_to_csv,
)
from beamstab import certificate as cert_module
from beamstab.cli import main
from beamstab.errors import CkappaDegenerate, ValidationError, WindowViolation
from beamstab.model import StateField, _strain_matrix, curved_reference
from beamstab.params import derive_matrices
from beamstab.scenarios import PRESETS, apply_override, build_reference, header_echo
from beamstab.solver import generate_initial_datum, lyapunov_value, sobolev_norms
from beamstab.table import ROW_BLOCK
from conftest import curved_cases


def _weighted_field(cert, matrices, reference, a: float, b: float) -> np.ndarray:
    """Per-node a phi' Lambda + b gap Theta, with Lambda = diag(M D, M D)."""
    theta = theta_matrix(matrices, reference.curvature)
    lam = np.tile(matrices.mass * matrices.speed, 2)
    out = b * cert.gap[:, None, None] * theta
    idx = np.arange(12)
    out[:, idx, idx] += a * cert.dphi[:, None] * lam[None, :]
    return out


def _halves_and_scale(cert, matrices, a: float, b: float):
    """The library's per-node largest eigenvalue and largest absolute row sum of a phi' Lambda + b gap Theta."""
    block = theta_matrix(matrices, cert.curvature)[6:, :6]
    return (_largest_of_halves(cert, matrices, block, a, b),
            _row_scale(cert, matrices, block, a, b))


def interior_matrices(cert, matrices, reference) -> np.ndarray:
    """Per-node symmetric matrices dQ/dx diag(-D, D) - Q B - B^T Q.

    Assembled through the structured identity
    dQ/dx diag(-D, D) = -phi'/2 Lambda  and  Q B + B^T Q = gap/2 Theta,
    so the analytic derivative and gap enter directly.  A dense product
    assembly would subtract near-equal weights and lose the (relatively
    thin, absolutely tiny) margin on stiff beams.
    """
    return _weighted_field(cert, matrices, reference, -0.5, -0.5)


def sigma_matrices(cert, matrices, reference) -> np.ndarray:
    """Per-node -phi' Lambda + 2 (phi(L) - phi) Theta (the decay-rate field)."""
    return _weighted_field(cert, matrices, reference, -1.0, 2.0)


def _close_to_column_max(got, expected, rtol=1e-13):
    return np.abs(got - expected).max() <= rtol * np.abs(expected).max()


def bisection_largest_eigenvalue(sym: np.ndarray, tol: float = 1e-12) -> float:
    """Inertia-based bisection oracle for the largest eigenvalue.

    Counts eigenvalues below a shift via the LDL^T factorization and
    bisects on that count; fully independent of the QR eigensolver.
    """
    from scipy.linalg import ldl

    n = sym.shape[0]

    def count_below(s):
        d = ldl(sym - s * np.eye(n))[1]
        count = 0
        i = 0
        while i < n:
            if i + 1 < n and abs(d[i + 1, i]) > 0:
                # 2x2 block: one positive, one negative eigenvalue
                count += 1
                i += 2
            else:
                if d[i, i] < 0:
                    count += 1
                i += 1
        return count

    hi = float(np.abs(sym).sum(axis=1).max()) + 1.0
    lo = -hi
    while hi - lo > tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if count_below(mid) == n:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_theta_straight_beam_closed_forms(toy_params, asym_params):
    for params in (toy_params, asym_params):
        m = derive_matrices(params)
        theta, q1, q2 = theta_functions(m, np.zeros(3))
        lam = m.wave_speeds[6:]
        j = m.inertia
        assert theta[0] == 0.0 and theta[3] == 0.0
        assert theta[1] == 1.0 and theta[2] == 1.0
        assert theta[4] == pytest.approx(params.area * lam[2] / (lam[0] * j[1]), rel=1e-14)
        assert theta[5] == pytest.approx(params.area * lam[1] / (lam[0] * j[2]), rel=1e-14)
        expected_cq1 = max(
            1.0,
            params.area * np.sqrt(params.k3 * params.shear) / (params.moment2 * np.sqrt(params.young)),
            params.area * np.sqrt(params.k2 * params.shear) / (params.moment3 * np.sqrt(params.young)),
        )
        assert q1 == pytest.approx(expected_cq1, abs=1e-12)


def paper_theta(matrices, curvature):
    """The paper's per-component closed form of theta_1..theta_6 at one curvature."""
    u1, u2, u3 = np.abs(curvature)
    l7, l8, l9, l10 = matrices.wave_speeds[6:10]
    j1, j2, j3 = matrices.inertia
    a = matrices.params.area
    return np.array([
        abs(1.0 - l8 / l7) * u3 + abs(1.0 - l9 / l7) * u2,
        abs(1.0 - l7 / l8) * u3 + abs(1.0 - l9 / l8) * u1 + 1.0,
        abs(1.0 - l7 / l9) * u2 + abs(1.0 - l8 / l9) * u1 + 1.0,
        abs(1.0 - l7 * j2 / (l10 * j1)) * u3 + abs(1.0 - l7 * j3 / (l10 * j1)) * u2,
        a * l9 / (l7 * j2) + abs(1.0 - l10 * j1 / (l7 * j2)) * u3 + abs(1.0 - j3 / j2) * u1,
        a * l8 / (l7 * j3) + abs(1.0 - l10 * j1 / (l7 * j3)) * u2 + abs(1.0 - j2 / j3) * u1,
    ])


def test_theta_matches_paper_closed_form(asym_matrices):
    rng = np.random.default_rng(13)
    for _ in range(20):
        curv = rng.normal(size=3)
        theta, q1, _ = theta_functions(asym_matrices, curv)
        expected = paper_theta(asym_matrices, curv)
        np.testing.assert_allclose(theta, expected, rtol=1e-13, atol=0.0)
        assert q1 == pytest.approx(expected.max(), rel=1e-13)


def test_theta_toy_value(toy_matrices):
    _, q1, _ = theta_functions(toy_matrices, np.zeros(3))
    assert q1 == pytest.approx(1.0, abs=0)  # max{1, 1/2, 1/2}


def test_theta_matches_row_sum_construction(asym_matrices):
    # independent route: weighted absolute row sums of E D M + (E D M)^T
    rng = np.random.default_rng(11)
    for _ in range(20):
        curv = rng.normal(size=3)
        theta, q1, _ = theta_functions(asym_matrices, curv)
        eb = _strain_matrix(curv)
        dm = asym_matrices.mass * asym_matrices.speed
        x = eb * dm[None, :]
        x = x + x.T
        rows = np.abs(x).sum(axis=1) / dm
        assert np.abs(theta - rows).max() < 1e-12
        assert q1 == pytest.approx(rows.max(), rel=1e-14)


def test_q2_against_bisection_oracle(asym_matrices):
    rng = np.random.default_rng(12)
    dm = asym_matrices.mass * asym_matrices.speed
    for _ in range(5):
        curv = rng.normal(size=3)
        _, _, q2 = theta_functions(asym_matrices, curv)
        big = theta_matrix(asym_matrices, curv)
        oracle = bisection_largest_eigenvalue(big, tol=1e-13) / dm.min()
        assert q2 == pytest.approx(oracle, abs=1e-10)


def test_theta_matrix_symmetric_traceless(asym_matrices):
    big = theta_matrix(asym_matrices, np.array([0.3, -0.8, 0.2]))
    assert np.abs(big - big.T).max() == 0.0
    assert abs(np.trace(big)) == 0.0


def test_build_phi_endpoints_and_identity():
    grid = np.linspace(0.0, 1.0, 101)
    phi, dphi, gap = build_phi(1.0, 1.0, 1.2, grid)
    assert phi[0] == pytest.approx(1.0, abs=0)
    assert phi[-1] == pytest.approx(1.2, abs=0)
    # phi = 1.2 - 0.2 exp(-2x)(1-x); slack dphi - 2(phiL - phi) = 0.2 exp(-2x)/L
    expected_slack = 0.2 * np.exp(-2.0 * grid)
    assert np.abs(dphi - 2.0 * gap - expected_slack).max() < 1e-14
    assert np.abs(phi - (1.2 - 0.2 * np.exp(-2 * grid) * (1 - grid))).max() < 1e-14


def test_build_phi_rejects_bad_endpoints():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValidationError):
        build_phi(1.0, 1.2, 1.0, grid)
    with pytest.raises(ValidationError):
        build_phi(1.0, -0.1, 1.0, grid)


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=0.01, max_value=50.0),
    phi0=st.floats(min_value=0.1, max_value=5.0),
    ratio=st.floats(min_value=1.001, max_value=3.0),
)
def test_build_phi_inequality_dense_sampling(c, phi0, ratio):
    grid = np.linspace(0.0, 1.0, 251)
    phiL = phi0 * ratio
    phi, dphi, gap = build_phi(c, phi0, phiL, grid)
    assert np.all(phi > 0.0)
    assert np.all(dphi > 0.0)
    assert np.all(dphi - 2.0 * c * gap > 0.0)


def test_phi_window_degenerate():
    with pytest.raises(CkappaDegenerate):
        phi_window(1.0, 1.0)
    lo, hi = phi_window(0.0, 2.0)
    assert lo == 2.0 and hi == np.inf


def test_certificate_valid_toy(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 64, np.zeros(3))
    for which in (1, 2):
        cert = build_certificate(m, ref, m=which, phi0=1.0, phiL=None)
        assert cert.valid
        assert np.all(cert.interior_margins < 0.0)
        assert np.all(cert.boundary_margins_0 <= 0.0)
        assert np.all(cert.boundary_margins_L <= 0.0)
        # weight shape invariants
        assert np.all(cert.w_minus > 0) and np.all(cert.w_plus > 0)
        assert np.all(np.diff(cert.w_minus) > 0)
        assert np.all(np.diff(cert.w_plus) < 0)
        assert cert.w_minus[-1] <= cert.w_plus[-1]
        ratio = cert.w_plus[0] / cert.w_minus[0]
        assert 1.0 < ratio <= 1.0 / m.reflection_bound + 1e-12


def test_certificate_constant_weights_fail(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 32, np.zeros(3))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=1.0)
    assert not cert.valid
    assert np.all(cert.w_minus == cert.w_plus)
    # interior matrix is traceless and not identically negative: largest eig >= 0
    assert cert.interior_margins.max() >= 0.0


def test_certificate_window_violation(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 16, np.zeros(3))
    lo, hi = phi_window(m.reflection_bound, 1.0)
    with pytest.raises(WindowViolation):
        build_certificate(m, ref, m=1, phi0=1.0, phiL=hi * 1.01)
    with pytest.raises(WindowViolation):
        build_certificate(m, ref, m=1, phi0=1.0, phiL=0.99)


def test_explicit_weight_formulas(toy_params):
    # w-(x) = beta - exp(-2cx)(1 - x/L)(beta - alpha), w+ mirrored about beta
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 50, np.zeros(3))
    alpha_w, beta_w = 1.0, 1.4
    cert = build_certificate(m, ref, m=1, phi0=alpha_w, phiL=beta_w)
    x = ref.grid
    length = toy_params.length
    damp = np.exp(-2.0 * cert.c * x) * (1.0 - x / length) * (beta_w - alpha_w)
    assert np.abs(cert.w_minus - (beta_w - damp)).max() < 1e-14
    assert np.abs(cert.w_plus - (beta_w + damp)).max() < 1e-14


def test_boundary_matrix_entries(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 16, np.zeros(3))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    kd = m.kappa
    mass = m.mass
    expected0 = 0.5 * (cert.w_plus[0] * kd**2 - cert.w_minus[0]) * mass
    assert np.abs(cert.boundary_margins_0 - expected0).max() < 1e-14
    expectedL = 0.5 * (cert.w_minus[-1] - cert.w_plus[-1]) * mass
    assert np.abs(cert.boundary_margins_L - expectedL).max() == 0.0
    assert np.all(expectedL == 0.0)  # weights meet at the clamped end


def test_interior_matrix_matches_dense_assembly(toy_params):
    # structured assembly vs literal dQ/dx D - Q B - B^T Q on a curved beam
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 24, np.array([0.5, -0.2, 0.3]))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=1.2)
    structured = interior_matrices(cert, m, ref)
    dd = m.wave_speeds
    half_mass = 0.5 * m.mass
    for k in range(len(ref.grid)):
        q = cert.q_diag[k]
        dq = np.concatenate(
            [cert.dphi[k] * half_mass, -cert.dphi[k] * half_mass]
        )
        dense = np.diag(dq * dd) - q[:, None] * ref.coupling_char \
            - (q[:, None] * ref.coupling_char).T
        assert np.abs(structured[k] - dense).max() < 1e-12
        assert abs(cert.interior_margins[k] - np.linalg.eigvalsh(dense)[-1]) < 1e-12


def test_product_identity_two_routes(toy_params):
    # Q B + B^T Q = (w+ - w-)/4 * (E D M + (E D M)^T) placed antidiagonally
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 12, np.array([-0.4, 0.7, 0.1]))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=1.3)
    dm = m.mass * m.speed
    for k in range(len(ref.grid)):
        q = cert.q_diag[k]
        qb = q[:, None] * ref.coupling_char
        dense = qb + qb.T
        quarter = 0.25 * _strain_matrix(ref.curvature) * dm[None, :]
        sym = quarter + quarter.T
        gap_w = cert.w_plus[k] - cert.w_minus[k]
        expected = np.zeros((12, 12))
        expected[:6, 6:] = -gap_w * sym
        expected[6:, :6] = -gap_w * sym
        assert np.abs(dense - expected).max() < 1e-12


def test_dominance_margin_implies_negative_definite(asym_params):
    m = derive_matrices(asym_params)
    ref = curved_reference(asym_params, 20, np.array([0.8, 0.3, -0.5]))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    eigs = _halves_and_scale(cert, m, -1.0, 2.0)[0]
    assert _close_to_column_max(eigs, np.linalg.eigvalsh(sigma_matrices(cert, m, ref))[:, -1])
    for k in range(len(ref.grid)):
        if cert.dominance_slack[k] > 0 or cert.weyl_slack[k] > 0:
            assert eigs[k] < 0.0
    assert np.all(cert.dominance_slack > 0)  # construction guarantees it


def test_verify_grid_mismatch(toy_params):
    m = derive_matrices(toy_params)
    ref16 = curved_reference(toy_params, 16, np.zeros(3))
    ref32 = curved_reference(toy_params, 32, np.zeros(3))
    cert = build_certificate(m, ref16, m=1, phi0=1.0, phiL=None)
    with pytest.raises(ValidationError):
        verify_certificate(cert, m, ref32)


def test_verify_rejects_other_geometry_or_params(toy_params, asym_params):
    # the certificate carries its q bounds, so verifying it against another
    # curvature or other parameters on the same grid must not mix the two
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 16, np.zeros(3))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    curved = curved_reference(toy_params, 16, np.array([0.3, 0.0, 0.1]))
    assert np.array_equal(curved.grid, ref.grid)
    with pytest.raises(ValidationError):
        verify_certificate(cert, m, curved)
    with pytest.raises(ValidationError):
        verify_certificate(cert, derive_matrices(asym_params), ref)
    assert verify_certificate(cert, derive_matrices(toy_params), ref).valid


def test_verify_returns_the_built_margins(asym_params):
    m = derive_matrices(asym_params)
    ref = curved_reference(asym_params, 20, np.array([0.8, 0.3, -0.5]))
    for phiL in (None, 1.0):  # a valid certificate, and constant weights (invalid)
        cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=phiL)
        again = verify_certificate(cert, m, ref)
        for name in ("boundary_margins_0", "boundary_margins_L", "interior_margins",
                     "dominance_slack", "weyl_slack"):
            assert np.array_equal(getattr(again, name), getattr(cert, name)), name
        assert again.valid == cert.valid == (phiL is None)


def test_q_functions_continuity(toy_params):
    # q_1, q_2 are continuous in the curvature: along a smooth path of
    # curvatures, sample-to-sample jumps vanish with the spacing
    m = derive_matrices(toy_params)
    s = np.linspace(0.0, 1.0, 201)
    path = np.stack([np.sin(s), np.full_like(s, 0.2), np.cos(2 * s)], axis=-1)
    q1, q2 = np.array([theta_functions(m, curv)[1:] for curv in path]).T
    assert np.all(q1 >= 0) and np.all(q2 >= 0)
    assert np.abs(np.diff(q1)).max() < 5.0 * (s[1] - s[0])
    assert np.abs(np.diff(q2)).max() < 5.0 * (s[1] - s[0])


def test_decay_rate_estimate_properties(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 64, np.zeros(3))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    sig = sigma_matrices(cert, m, ref)
    c_s = float(np.linalg.eigvalsh(sig)[:, -1].max())
    assert c_s < 0.0
    alpha0 = decay_rate_estimate(cert, m, ref, delta=0.0)
    c_q = float(cert.q_diag.max() / cert.q_diag.min())
    assert alpha0 == pytest.approx(-0.5 * c_q * c_s, rel=1e-12)
    assert alpha0 > 0.0
    deltas = [0.0, 1e-5, 1e-4, 1e-3]
    alphas = [decay_rate_estimate(cert, m, ref, d) for d in deltas]
    for a, b in zip(alphas, alphas[1:]):
        assert b <= a
    assert alphas[1] < alphas[0]  # strictly decreasing before the clip


def test_decay_rate_estimate_does_not_depend_on_phi0():
    # phi0 only normalises the weights; with the default phiL the whole
    # weight field scales with it, and the estimated rate must not
    helical = PRESETS["helical"]
    m = derive_matrices(helical.params)
    ref = curved_reference(helical.params, 64, helical.reference.curvature, m)
    for delta in (0.0, 1e-6):
        alphas = [
            decay_rate_estimate(build_certificate(m, ref, m=1, phi0=phi0), m, ref, delta)
            for phi0 in (1.0, 2.0, 3.0, 1000.0)
        ]
        assert alphas[0] > 0.0
        for alpha in alphas[1:]:
            assert alpha == pytest.approx(alphas[0], rel=1e-12, abs=0.0)


def test_decay_estimate_bounds_observed_decay(toy_params):
    from beamstab.solver import SimConfig, fit_decay, simulate

    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 96, np.zeros(3))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    alpha_est = decay_rate_estimate(cert, m, ref, delta=0.0)
    datum = generate_initial_datum(m, ref, 1e-2, seed=21, order=1)
    cfg = SimConfig(n_cells=96, cfl=0.9, t_end=8.0, output_stride=4)
    traj = simulate(cfg, m, ref, datum, cert=cert, lyap_order=1)
    alpha_fit, _, _ = fit_decay(traj.times, traj.lyap, t_min=1.0)
    assert alpha_fit > 0.0
    # deliberately loose cross-check: the heuristic stays a lower bound up to 10x
    assert alpha_est <= 10.0 * alpha_fit


def equivalence_constants(cert, matrices, reference, delta):
    """Constants with c1 ||r||_H1^2 <= L(r) <= c2 ||r||_H1^2 on the delta-ball.

    Exact for the discrete operators: the time derivative inside the
    functional is computed from the same spatial stencil that defines the
    discrete H1 norm, so the chain of pointwise bounds holds sample-wise.
    """
    qmin = float(cert.q_diag.min())
    qmax = float(cert.q_diag.max())
    lam_max = float(np.abs(matrices.wave_speeds).max())
    lam_min = float(matrices.speed.min())
    bnorm = float(np.linalg.norm(reference.coupling_char, 2))
    a = bnorm + lipschitz_bound(matrices) * delta
    c2 = qmax * max(1.0 + 2.0 * a * a, 2.0 * lam_max * lam_max)
    c1 = qmin / max(2.0 / lam_min**2, 1.0 + 2.0 * a * a / lam_min**2)
    return c1, c2


def test_lyapunov_equivalence_constants(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 64, np.zeros(3))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    rng = np.random.default_rng(31)
    xi = ref.grid / ref.grid[-1]
    dx = ref.dx
    for _ in range(10):
        coeffs = rng.normal(size=(12, 3))
        values = sum(
            coeffs[:, k][None, :] * np.sin((k + 1) * np.pi * xi[:, None]) for k in range(3)
        ) * 1e-2
        delta = float(np.abs(values).max())
        c1, c2 = equivalence_constants(cert, m, ref, delta)
        state = StateField(ref.grid, "diagonal", values, 0.0)
        lyap = lyapunov_value(state, cert, m, ref, k=1)
        h1_sq = sobolev_norms(values, dx, 1) ** 2
        assert c1 * h1_sq <= lyap <= c2 * h1_sq
        assert 0.0 < c1 < c2


def test_lipschitz_bound_dominates_samples(toy_matrices):
    # oracle: sampled K with ||Jac g(u)||_2 <= K |u| over random unit states
    from beamstab.model import g_diag_pair

    rng = np.random.default_rng(20240)
    eye = np.eye(12)
    sampled = 0.0
    for _ in range(64):
        u = rng.normal(size=12)
        u /= np.linalg.norm(u)
        jac = (g_diag_pair(toy_matrices, u, eye) + g_diag_pair(toy_matrices, eye, u)).T
        sampled = max(sampled, float(np.linalg.norm(jac, 2)))
    assert lipschitz_bound(toy_matrices) >= sampled


def test_certificate_carries_theta_bounds(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 16, np.array([0.5, -0.2, 0.3]))
    cert = build_certificate(m, ref, m=2, phi0=1.0, phiL=None)
    _, q1, q2 = theta_functions(m, ref.curvature)
    assert type(cert.q1) is float and type(cert.q2) is float
    assert cert.q1 == q1 and cert.q2 == q2
    assert cert.c == cert.q2


def _per_node_curvature(reference):
    return np.broadcast_to(reference.curvature, (len(reference.grid), 3))


def test_scalar_bounds_are_the_max_of_the_per_node_bounds(asym_params):
    # oracle: theta_functions on the per-node curvature table, as the
    # certificate once took it, and the max of each per-node bound
    for m, ref in curved_cases(asym_params, seed=12):
        q1, q2 = np.array([theta_functions(m, c)[1:] for c in _per_node_curvature(ref)]).T
        assert q1.shape == q2.shape == ref.grid.shape
        for order in (1, 2):
            cert = build_certificate(m, ref, m=order, phi0=1.0, phiL=None)
            assert cert.q1 == q1.max() and cert.q2 == q2.max()
            assert cert.c == (q1 if order == 1 else q2).max()


def test_weighted_fields_equal_the_per_node_theta_assembly(asym_params):
    # oracle: a phi' Lambda + b gap Theta(x) from the per-node Theta table.
    # The library solves its two 6x6 halves, so the largest eigenvalues
    # agree to roundoff, not to the bit
    for m, ref in curved_cases(asym_params, seed=12):
        cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
        theta = np.stack([theta_matrix(m, c) for c in _per_node_curvature(ref)])
        lam = np.tile(m.mass * m.speed, 2)
        idx = np.arange(12)
        for a, b, field in ((-0.5, -0.5, interior_matrices), (-1.0, 2.0, sigma_matrices)):
            expected = b * cert.gap[:, None, None] * theta
            expected[:, idx, idx] += a * cert.dphi[:, None] * lam[None, :]
            assert np.array_equal(field(cert, m, ref), expected)
            largest = _halves_and_scale(cert, m, a, b)[0]
            assert _close_to_column_max(largest, np.linalg.eigvalsh(expected)[:, -1])


def _oracle_valid(cert, matrices, reference):
    """``valid`` recomputed with the interior condition on the 12x12 field."""
    interior = interior_matrices(cert, matrices, reference)
    margins = np.linalg.eigvalsh(interior)[:, -1]
    scale = np.abs(interior).sum(axis=2).max(axis=1)
    interior_ok = np.all(margins < 0.0) and np.all(margins <= -MARGIN_RTOL * scale)
    b0, bL = cert.boundary_margins_0, cert.boundary_margins_L
    bscale = max(np.abs(b0).max(), np.abs(bL).max(), 1e-300)
    boundary_ok = np.all(b0 <= MARGIN_RTOL * bscale) and np.all(bL <= MARGIN_RTOL * bscale)
    return bool(interior_ok and boundary_ok)


def test_two_halves_match_the_12x12_fields(asym_params):
    # oracle: eigvalsh and absolute row sums of the assembled 12x12 fields,
    # on curved beams, the presets, m = 2 and constant weights (invalid)
    cases = [(m, ref, 1, None) for m, ref in curved_cases(asym_params, seed=12)]
    for scenario in PRESETS.values():
        m = derive_matrices(scenario.params)
        ref = build_reference(scenario, m)
        cases += [(m, ref, 1, None), (m, ref, 2, None), (m, ref, 1, 1.0)]
    for m, ref, order, phiL in cases:
        cert = build_certificate(m, ref, m=order, phi0=1.0, phiL=phiL)
        for a, b in ((-0.5, -0.5), (-1.0, 2.0)):
            field = _weighted_field(cert, m, ref, a, b)
            largest, scale = _halves_and_scale(cert, m, a, b)
            assert _close_to_column_max(largest, np.linalg.eigvalsh(field)[:, -1])
            assert _close_to_column_max(scale, np.abs(field).sum(axis=2).max(axis=1))
        assert cert.valid == _oracle_valid(cert, m, ref) == (phiL is None)


def _one_batch_halves(cert, matrices, a: float, b: float):
    """Oracle: per-node largest eigenvalue of the halves a phi' W -+ b gap X, solved in one batch.

    Also returns the per-node largest absolute row sum of the 12x12 field.
    """
    diag = a * cert.dphi[:, None] * (matrices.mass * matrices.speed)
    block = theta_matrix(matrices, cert.curvature)[6:, :6]
    halves = (b * cert.gap)[:, None, None, None] * np.stack([block, -block])
    idx = np.arange(6)
    halves[:, :, idx, idx] += diag[:, None, :]
    return np.linalg.eigvalsh(halves)[..., -1].max(axis=1), _one_batch_scale(cert, matrices, a, b)


def _one_batch_scale(cert, matrices, a: float, b: float):
    """Oracle: per-node largest absolute row sum of the 12x12 field, from whole (N+1, 6) arrays."""
    diag = a * cert.dphi[:, None] * (matrices.mass * matrices.speed)
    block = theta_matrix(matrices, cert.curvature)[6:, :6]
    rows = np.abs(diag) + np.abs(b * cert.gap)[:, None] * np.abs(block).sum(axis=1)
    return rows.max(axis=1)


def _full_decay_eigenvalue(cert, matrices):
    """Oracle for C_S: every node's halves eigensolved in one batch, then the maximum."""
    return _one_batch_halves(cert, matrices, -1.0, 2.0)[0].max()


def _assert_decay_eigenvalue_is_the_full_solve(cert, matrices, reference):
    expected = _full_decay_eigenvalue(cert, matrices)
    got = _largest_decay_eigenvalue(cert, matrices)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)
    c_q = float(cert.q_diag.max() / cert.q_diag.min())
    alpha = max(0.0, 0.5 * c_q * (-float(expected) / cert.phi0))
    assert decay_rate_estimate(cert, matrices, reference, delta=0.0) == alpha


def test_decay_eigenvalue_is_the_full_solve_bit_for_bit(asym_params):
    # only the nodes whose Gershgorin bound can reach the maximum are
    # eigensolved; the oracle solves every node
    cases = [(m, ref, 1) for m, ref in curved_cases(asym_params, seed=12)]
    fine = apply_override(PRESETS["helical"], "sim.n_cells=8192")
    for scenario in (*PRESETS.values(), fine):
        m = derive_matrices(scenario.params)
        ref = build_reference(scenario, m)
        cases += [(m, ref, 1), (m, ref, 2)]
    for m, ref, order in cases:
        _assert_decay_eigenvalue_is_the_full_solve(
            build_certificate(m, ref, m=order, phi0=1.0, phiL=None), m, ref)


@settings(max_examples=40, deadline=None)
@given(
    curvature=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3),
    share=st.floats(min_value=0.0, max_value=1.0),
    n_cells=st.integers(min_value=16, max_value=300),
)
def test_decay_eigenvalue_search(asym_params, curvature, share, n_cells):
    m = derive_matrices(asym_params)
    ref = curved_reference(asym_params, n_cells, np.array(curvature), m)
    lo, hi = phi_window(m.reflection_bound, 1.0)
    phiL = lo + share * (min(hi, 3.0) - lo)
    _assert_decay_eigenvalue_is_the_full_solve(
        build_certificate(m, ref, m=1, phi0=1.0, phiL=phiL), m, ref)


def test_decay_eigenvalue_off_the_largest_diagonal_entry(toy_params):
    # constant phi' puts the largest diagonal entry on every node, so the
    # first is argmax; a gap that peaks mid-grid puts the maximum there
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 64, np.array([0.5, -0.2, 0.3]), m)
    x = ref.grid / ref.grid[-1]
    cert = replace(build_certificate(m, ref, m=1, phi0=1.0, phiL=None),
                   dphi=np.full_like(x, 0.7), gap=0.4 * np.exp(-((x - 0.5) / 0.1) ** 2))
    largest = _halves_and_scale(cert, m, -1.0, 2.0)[0]
    diag = -cert.dphi[:, None] * (m.mass * m.speed)
    assert largest[np.argmax(diag.max(axis=1))] < largest.max()
    assert np.argmax(largest) == len(x) // 2
    _assert_decay_eigenvalue_is_the_full_solve(cert, m, ref)


def _outcome(call):
    try:
        return np.float64(call()).tobytes()
    except Exception as exc:  # the two paths must raise the same exception
        return type(exc), str(exc)


def test_decay_eigenvalue_with_a_nan_gap(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 32, np.array([0.5, -0.2, 0.3]), m)
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    for node in (0, 7, len(ref.grid) - 1):
        gap = cert.gap.copy()
        gap[node] = np.nan
        bad = replace(cert, gap=gap)
        assert _outcome(lambda: _largest_decay_eigenvalue(bad, m)) == _outcome(
            lambda: _full_decay_eigenvalue(bad, m))


def test_certificate_csv_contains_summary(toy_params):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 16, np.zeros(3))
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    text = certificate_to_csv(cert, m, ref, alpha_estimate=0.5)
    assert "C_kappa" in text and "C_q1" in text and "C_q2" in text
    assert "alpha_estimate_heuristic" in text
    assert text.count("\n") > len(ref.grid)


def _bits(call):
    """The bytes of an array result, or the type and message of the exception raised."""
    try:
        return np.asarray(call()).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _blocked_cases(asym_params):
    """Certificates on N+1 = 511, 512, 513 and 1025 nodes, the presets and helical at N = 8192."""
    m = derive_matrices(asym_params)
    cases = []
    for n_cells in (510, 511, 512, 1024):
        ref = curved_reference(asym_params, n_cells, np.array([0.5, -0.2, 0.3]), m)
        cases.append((m, ref))
    fine = apply_override(PRESETS["helical"], "sim.n_cells=8192")
    for scenario in (*PRESETS.values(), fine):
        matrices = derive_matrices(scenario.params)
        cases.append((matrices, build_reference(scenario, matrices)))
    return [(m, ref, build_certificate(m, ref, m=1, phi0=1.0, phiL=None)) for m, ref in cases]


def test_blocked_halves_are_the_one_batch_solve_bit_for_bit(asym_params):
    # oracle: the halves of every node built and eigensolved in one batch,
    # and the row sums from the whole (N+1, 6) arrays
    assert ROW_BLOCK == 512
    for m, ref, cert in _blocked_cases(asym_params):
        block = theta_matrix(m, cert.curvature)[6:, :6]
        keep = np.arange(len(ref.grid)) % 3 != 1
        for a, b in ((-0.5, -0.5), (-1.0, 2.0)):
            largest, scale = _one_batch_halves(cert, m, a, b)
            got_largest, got_scale = _halves_and_scale(cert, m, a, b)
            assert got_largest.tobytes() == largest.tobytes()
            assert got_scale.tobytes() == scale.tobytes()
            assert _largest_of_halves(cert, m, block, a, b, keep).tobytes() == largest[keep].tobytes()
        assert cert.interior_margins.tobytes() == _one_batch_halves(cert, m, -0.5, -0.5)[0].tobytes()


def test_blocked_halves_with_a_nan_gap(asym_params):
    # curved about the first axis only, X has two zero rows, so an infinite
    # gap makes two columns of row sums NaN (inf * 0) and the others inf:
    # the per-node scale must still be NaN
    m = derive_matrices(asym_params)
    ref = curved_reference(asym_params, 1024, np.array([1.0, 0.0, 0.0]), m)
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    for bad_value, node in itertools.product((np.nan, np.inf), (0, 511, 512, 1024)):
        gap = cert.gap.copy()
        gap[node] = bad_value
        bad = replace(cert, gap=gap)
        with np.errstate(invalid="ignore"):
            for a, b in ((-0.5, -0.5), (-1.0, 2.0)):
                scale = _one_batch_scale(bad, m, a, b)
                assert np.isnan(scale[node])
                # a NaN's sign bit depends on the reduction, so NaN matches NaN
                got = _row_scale(bad, m, theta_matrix(m, bad.curvature)[6:, :6], a, b)
                assert np.array_equal(got, scale, equal_nan=True)
                assert _bits(lambda: _halves_and_scale(bad, m, a, b)) == _bits(
                    lambda: _one_batch_halves(bad, m, a, b))


def _certify_fine(tmp_path, n_cells):
    """Run certify on helical at ``n_cells``; returns its report file and the scenario."""
    scenario = apply_override(PRESETS["helical"], f"sim.n_cells={n_cells}")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--scenario", "helical", "--override",
                     f"sim.n_cells={n_cells}", "--out", str(tmp_path)]) == 0
    return tmp_path / "helical-certificate.csv", scenario


def _oracle_table(header, rows):
    """Every row formatted with f"{v:.17g}", as the report was written before it was streamed."""
    return ",".join(header) + "\n" + "".join(
        ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n" for row in rows)


def test_report_chunks_join_to_the_report():
    scenario = apply_override(PRESETS["helical"], "sim.n_cells=1100")
    m = derive_matrices(scenario.params)
    ref = build_reference(scenario, m)
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    chunks = list(certificate_csv_chunks(cert, alpha_estimate=0.25))
    # heading, table header, three row blocks (512 + 512 + 77), summary
    assert len(chunks) == 6
    assert [c.count("\n") for c in chunks[2:5]] == [512, 512, 77]
    assert "".join(chunks) == certificate_to_csv(cert, m, ref, alpha_estimate=0.25)


def test_certify_file_keeps_the_whole_table_format(tmp_path):
    # oracle: the report as one string, every row of the (N+1, 6) margin
    # table formatted at once, behind the scenario echo
    path, scenario = _certify_fine(tmp_path, 8192)
    m = derive_matrices(scenario.params)
    ref = build_reference(scenario, m)
    cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
    alpha = decay_rate_estimate(cert, m, ref, delta=0.0)
    margins = np.column_stack([cert.grid, cert.w_minus, cert.w_plus, cert.interior_margins,
                               cert.dominance_slack, cert.weyl_slack]).tolist()
    summary = [("valid", 1), ("m", 1), ("C_kappa", cert.reflection_bound), ("C_q1", cert.q1),
               ("C_q2", cert.q2), ("phi0", cert.phi0), ("phiL", cert.phiL)]
    summary += [(f"boundary0_eig_{i + 1}", v) for i, v in enumerate(cert.boundary_margins_0)]
    summary += [(f"boundaryL_eig_{i + 1}", v) for i, v in enumerate(cert.boundary_margins_L)]
    summary.append(("alpha_estimate_heuristic", alpha))
    header = ["x", "w_minus", "w_plus", "interior_max_eig", "dominance_slack", "weyl_slack"]
    expected = (
        "".join(f"# {k} = {v}\n" for k, v in header_echo(scenario).items())
        + "# certificate report\n" + _oracle_table(header, margins)
        + "\n# summary\n" + _oracle_table(["name", "value"], summary)
    )
    assert path.read_text() == expected


# tracemalloc peak of certify on helical above its entry: 2.15 MB at N = 8192
# and 14.39 MB at N = 65536 (numpy 2.4), against 7.45 and 56.86 MB when the
# halves of every node were one batch and the report one string
@pytest.mark.parametrize("n_cells, bound_mb", [(8192, 3.0), (65536, 16.0)])
def test_certify_peak_memory(tmp_path, n_cells, bound_mb):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _certify_fine(tmp_path, n_cells)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, peak


# the last two are normal, but their generator slack exp(-2 c x) (phiL - phi0) / L
# is not: at phi0 = tiny phiL - phi0 is subnormal, at 1e-307 the slack at x = L is
@pytest.mark.parametrize("phi0", [5e-324, 1e-320, 1e-310, 2.225073858507201e-308,
                                  2.2250738585072014e-308, 1e-307])
def test_subnormal_phi0_is_rejected(toy_params, phi0):
    m = derive_matrices(toy_params)
    ref = curved_reference(toy_params, 32, np.array([0.5, -0.2, 0.3]), m)
    with pytest.raises(ValidationError, match="certificate.phi0"):
        build_certificate(m, ref, m=1, phi0=phi0, phiL=None)
    # a small phi0 whose slack stays normal is accepted and certifies as phi0 = 1 does
    small = build_certificate(m, ref, m=1, phi0=1e-300, phiL=None)
    assert small.valid == build_certificate(m, ref, m=1, phi0=1.0, phiL=None).valid


def test_generator_slack_stays_normal():
    # straight-steel at N = 64: at L = 2.05 the smallest phi' is 3.3e-307 and
    # the slack normal; at L = 2.1 the slack would be subnormal
    steel = apply_override(PRESETS["straight-steel"], "sim.n_cells=64")
    for length, certifies in ((2.0, True), (2.05, True), (2.1, False)):
        scenario = apply_override(steel, f"params.length={length}")
        m = derive_matrices(scenario.params)
        ref = build_reference(scenario, m)
        if certifies:
            cert = build_certificate(m, ref, m=1, phi0=1.0, phiL=None)
            assert cert.valid and cert.dphi.min() >= np.finfo(float).tiny
        else:
            with pytest.raises(ValidationError, match="params.length"):
                build_certificate(m, ref, m=1, phi0=1.0, phiL=None)


def test_certify_forms_theta_three_times(tmp_path, monkeypatch):
    # once for the bounds q_1, q_2, once in verification, once in the decay estimate
    calls = []

    def counted(*args):
        calls.append(args)
        return theta_matrix(*args)

    monkeypatch.setattr(cert_module, "theta_matrix", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--scenario", "helical", "--out", str(tmp_path)]) == 0
    assert len(calls) == 3
