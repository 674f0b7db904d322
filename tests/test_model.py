import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamstab.errors import NotARotation, ValidationError
from beamstab.model import (
    E1,
    PrecurvedReference,
    StateField,
    _strain_matrix,
    coupling_pattern_blocks,
    curved_reference,
    g_diag,
    g_diag_pair,
    gbar,
    gbar_pair,
    hat,
    strains_velocities_from_pose,
    to_physical,
)
from beamstab.params import derive_matrices
from beamstab.scenarios import PRESETS, build_reference
from conftest import random_params
from pose_oracle import vec


def to_diagonal(state, matrices):
    """Node-wise change to characteristic variables r = L y."""
    if state.repr != "physical":
        raise ValueError(f"expected a physical state, got {state.repr!r}")
    return StateField(state.grid, "diagonal", state.values @ matrices.to_char.T, state.time)


def dissipative_boundary(matrices, eps=1e-3):
    """Weighted row-sum check of boundary dissipativity.

    Evaluates R_inf(S K S^{-1}) for K = [0, -I; kappa, 0] and the scaling
    S = diag(s, I), s = (1+eps) |kappa|; returns (value < 1, value).  Each
    row of S K S^{-1} has one nonzero entry, so its absolute row sums are
    s_i and |kappa_i| / s_i.  Entries of |kappa| are floored at 1e-9 so the
    scaling stays invertible when some reflection vanishes (the infimum
    over positive scalings is unchanged).
    """
    kd = np.abs(matrices.kappa)
    s = (1.0 + eps) * np.maximum(kd, 1e-9)
    value = float(max(s.max(), (kd / s).max()))
    return value < 1.0, value


def physical_coupling(matrices, strain_matrix):
    """Oracle: Bbar = [0, -M^{-1} E C^{-1}; E^T, 0] at one or many nodes."""
    eb = np.asarray(strain_matrix, dtype=float)
    minv = 1.0 / matrices.mass
    cinv = 1.0 / matrices.flexibility
    out = np.zeros(eb.shape[:-2] + (12, 12))
    out[..., :6, 6:] = -(minv[:, None] * eb * cinv[None, :])
    out[..., 6:, :6] = np.swapaxes(eb, -1, -2)
    return out


def paper_gbar_pair(matrices, u, v):
    """Oracle: the intrinsic nonlinearity as its eight cross products (Hodges 2003)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u1, u2, u3, u4 = (u[..., 3 * i : 3 * i + 3] for i in range(4))
    v1, v2, v3, v4 = (v[..., 3 * i : 3 * i + 3] for i in range(4))
    p = matrices.params
    s1 = matrices.stiff_force
    s2 = matrices.stiff_moment
    jd = matrices.inertia

    g1 = -(np.cross(u2, v1) + np.cross(s1 * u3, v4) / (p.rho * p.area))
    g2 = -(
        p.rho * np.cross(u2, jd * v2)
        + np.cross(s1 * u3, v3)
        + np.cross(s2 * u4, v4)
    ) / (p.rho * jd)
    g3 = -(np.cross(u2, v3) + np.cross(u1, v4))
    g4 = -np.cross(u2, v4)
    return np.concatenate([g1, g2, g3, g4], axis=-1)


def eager_reference_rotation(grid, curvature_fn):
    """Oracle: dR/dx = R hat(curvature_fn(x)), R(0) = I, by RK4 plus a polar
    re-projection per node, integrated eagerly as every reference once was."""
    h = grid[1] - grid[0]
    rotation = np.empty((len(grid), 3, 3))
    rotation[0] = np.eye(3)
    for j in range(len(grid) - 1):
        x = grid[j]
        r = rotation[j]
        k1 = r @ hat(curvature_fn(x))
        k2 = (r + 0.5 * h * k1) @ hat(curvature_fn(x + 0.5 * h))
        k3 = (r + 0.5 * h * k2) @ hat(curvature_fn(x + 0.5 * h))
        k4 = (r + h * k3) @ hat(curvature_fn(x + h))
        u, _, vt = np.linalg.svd(r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        out = u @ vt
        if np.linalg.det(out) < 0.0:
            u[:, -1] *= -1.0
            out = u @ vt
        rotation[j + 1] = out
    return rotation


def reference_to_csv(reference):
    """Reference samples as CSV: x, nine rotation entries (row-major), curvature."""
    out = io.StringIO()
    cols = ["x"] + [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)] + [
        "curv1",
        "curv2",
        "curv3",
    ]
    out.write(",".join(cols) + "\n")
    for k, x in enumerate(reference.grid):
        row = [x, *reference.rotation[k].ravel(), *reference.curvature]
        out.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return out.getvalue()


def reference_from_csv(text, matrices):
    """Rebuild a reference (coupling included) from its CSV form.

    Every row repeats the one curvature, so the first row's is read.  The
    read rotation is stored where the lazy integration caches its result.
    """
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    grid = data[:, 0]
    curvature = data[0, 10:13]
    coupling = coupling_pattern_blocks(matrices, _strain_matrix(curvature))
    reference = PrecurvedReference(grid, curvature, coupling)
    reference.__dict__["rotation"] = data[:, 1:10].reshape(-1, 3, 3)
    return reference


def expected_coupling_norm(params):
    lam8 = np.sqrt(params.k2 * params.shear / params.rho)
    lam9 = np.sqrt(params.k3 * params.shear / params.rho)
    return max(lam8, lam9, params.area / params.moment2 * lam9,
               params.area / params.moment3 * lam8)


def test_straight_reference_fields(toy_params):
    ref = curved_reference(toy_params, 16, np.zeros(3))
    assert np.allclose(ref.curvature, 0.0)
    # RK4 on zero curvature gives I, and the polar factor u @ vt of svd(I)
    # is I bit for bit, signs of zero included
    eye = np.broadcast_to(np.eye(3), ref.rotation.shape)
    assert np.array_equal(ref.rotation, eye)
    assert np.array_equal(np.signbit(ref.rotation), np.signbit(eye))
    # strain matrix reduces to [0, 0; hat(e1), 0]
    expected = np.zeros((6, 6))
    expected[3:, :3] = hat(E1)
    assert np.abs(_strain_matrix(ref.curvature) - expected).max() == 0.0


def test_straight_coupling_norm(toy_params, asym_params):
    for params in (toy_params, asym_params):
        ref = curved_reference(params, 8, np.zeros(3))
        target = expected_coupling_norm(params)
        assert np.linalg.norm(ref.coupling_char, 2) == pytest.approx(target, abs=1e-10)


def test_coupling_skew_product_and_pattern(asym_params):
    matrices = derive_matrices(asym_params)
    qd = np.diag(matrices.energy_char)
    dm = matrices.mass * matrices.speed
    for curvature in np.random.default_rng(4).normal(size=(12, 3)):
        ref = curved_reference(asym_params, 12, curvature)
        eb, b = _strain_matrix(ref.curvature), ref.coupling_char
        prod = qd @ b
        assert np.abs(prod + prod.T).max() < 1e-12
        quarter = 0.25 * eb * dm[None, :]
        sym = quarter + quarter.T
        skew = quarter - quarter.T
        expected = np.block([[-skew, sym], [-sym, skew]])
        assert np.abs(prod - expected).max() < 1e-12
        assert abs(np.trace(b)) < 1e-12
        assert abs(np.trace(b + b.T)) < 1e-12


def test_lazy_rotation_matches_eager_oracle(toy_params, asym_params):
    helical = replace(PRESETS["helical"], sim=replace(PRESETS["helical"].sim, n_cells=64))
    references = (
        build_reference(helical),
        curved_reference(asym_params, 40, np.array([0.7, -0.3, 0.4])),
        curved_reference(toy_params, 32, np.zeros(3)),
    )
    for ref in references:
        assert "rotation" not in ref.__dict__  # nothing integrated at construction
        oracle = eager_reference_rotation(ref.grid, lambda x: ref.curvature)
        assert np.array_equal(ref.rotation, oracle)
        assert ref.rotation is ref.rotation  # integrated once, then cached


def test_curved_zero_curvature_matches_straight(toy_params):
    # the straight preset's tuple curvature and a zero vector build one reference
    toy = PRESETS["straight-toy"]
    straight = build_reference(replace(toy, params=toy_params, sim=replace(toy.sim, n_cells=16)))
    curved = curved_reference(toy_params, 16, np.zeros(3))
    assert np.array_equal(curved.grid, straight.grid)
    assert np.array_equal(curved.curvature, straight.curvature)
    assert np.abs(curved.rotation - straight.rotation).max() < 1e-14
    assert np.abs(curved.coupling_char - straight.coupling_char).max() < 1e-14


def test_curved_constant_twist(toy_params):
    tau = 0.8
    n = 64
    ref = curved_reference(toy_params, n, np.array([tau, 0.0, 0.0]))
    dx = ref.dx
    for k, x in enumerate(ref.grid):
        angle = tau * x
        expected = np.array(
            [[1, 0, 0],
             [0, np.cos(angle), -np.sin(angle)],
             [0, np.sin(angle), np.cos(angle)]]
        )
        assert np.abs(ref.rotation[k] - expected).max() < (dx**4) * 10
    # recover the twist from the integrated field
    mid = n // 2
    drdx = (ref.rotation[mid + 1] - ref.rotation[mid - 1]) / (2 * dx)
    recovered = vec(ref.rotation[mid].T @ drdx)
    assert np.abs(recovered - np.array([tau, 0, 0])).max() < dx**2 * 5


@settings(max_examples=10, deadline=None)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_curved_orthogonality_defect(toy_params, coeffs):
    ref = curved_reference(toy_params, 48, np.array(coeffs))
    defect = np.abs(
        np.einsum("nji,njk->nik", ref.rotation, ref.rotation) - np.eye(3)
    ).max()
    assert defect < 1e-10
    assert np.abs(np.linalg.det(ref.rotation) - 1.0).max() < 1e-10


def test_curved_rejects_nonfinite():
    from conftest import random_params as rp  # noqa: F401  (fixture-free draw)
    import conftest

    params = conftest.random_params(np.random.default_rng(0))
    with pytest.raises(ValidationError):
        curved_reference(params, 8, np.array([np.nan, 0.0, 0.0]))


def test_coupling_zero_strain(toy_matrices):
    assert np.all(coupling_pattern_blocks(toy_matrices, np.zeros((6, 6))) == 0.0)


def test_coupling_block_layout_straight(toy_params):
    ref = curved_reference(toy_params, 4, np.zeros(3))
    m = derive_matrices(toy_params)
    eb = _strain_matrix(ref.curvature)
    bbar = physical_coupling(m, eb)
    assert np.all(bbar[6:, :6] == eb.T)
    assert np.all(bbar[:6, :6] == 0.0) and np.all(bbar[6:, 6:] == 0.0)
    # the stored closed-form table agrees with the similarity transform route
    direct = m.to_char @ bbar @ m.from_char
    assert np.abs(direct - ref.coupling_char).max() < 1e-12


def test_coupling_two_routes_random_curvature(asym_params):
    m = derive_matrices(asym_params)
    ref = curved_reference(asym_params, 8, np.array([0.3, -1.1, 0.6]))
    bbar = physical_coupling(m, _strain_matrix(ref.curvature))
    route1 = m.to_char @ bbar @ m.from_char
    route2 = ref.coupling_char
    assert np.abs(route1 - route2).max() < 1e-12


def test_gbar_zero_and_jacobian(toy_matrices):
    assert np.all(gbar(toy_matrices, np.zeros(12)) == 0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = rng.normal(size=12)
        eps = 1e-7
        fd = (gbar(toy_matrices, eps * h) - gbar(toy_matrices, -eps * h)) / (2 * eps)
        assert np.abs(fd).max() < 1e-6  # Jacobian at the origin vanishes


def test_gbar_energy_neutral(asym_matrices):
    rng = np.random.default_rng(1)
    qp = asym_matrices.energy_phys
    for _ in range(200):
        y = rng.normal(size=12)
        inner = float(np.dot(y * qp, gbar(asym_matrices, y)))
        assert abs(inner) <= 1e-12 * float(y @ y)


def test_gbar_quadratic_homogeneity(asym_matrices):
    rng = np.random.default_rng(2)
    y = rng.normal(size=12)
    for c in (-2.0, 0.5, 3.0):
        assert np.abs(gbar(asym_matrices, c * y) - c * c * gbar(asym_matrices, y)).max() < 1e-12


def test_gbar_quadratic_forms_against_difference_oracle(asym_matrices):
    # oracle: rebuild the coefficient matrices from second differences of gbar,
    # exact for a quadratic map, then compare values on random inputs
    eye = np.eye(12)
    oracle = np.empty((12, 12, 12))
    for j in range(12):
        for k in range(12):
            oracle[:, j, k] = 0.5 * (
                gbar(asym_matrices, eye[j] + eye[k])
                - gbar(asym_matrices, eye[j])
                - gbar(asym_matrices, eye[k])
            )
    q = asym_matrices.quadratic
    gp = 0.5 * (q + np.swapaxes(q, 1, 2))
    assert np.abs(gp - oracle).max() < 1e-12
    assert np.abs(np.diagonal(gp, axis1=1, axis2=2)).max() == 0.0
    assert np.abs(gp - np.swapaxes(gp, 1, 2)).max() == 0.0
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = rng.normal(size=12)
        assert np.abs(np.einsum("j,ijk,k->i", y, gp, y) - gbar(asym_matrices, y)).max() < 1e-12


def test_gbar_jacobian_apply_matches_fd(asym_matrices):
    rng = np.random.default_rng(4)
    y = rng.normal(size=12)
    h = rng.normal(size=12)
    eps = 1e-6
    jac = g_diag_pair(asym_matrices, y, h) + g_diag_pair(asym_matrices, h, y)
    fd = (g_diag(asym_matrices, y + eps * h) - g_diag(asym_matrices, y - eps * h)) / (2 * eps)
    assert np.abs(jac - fd).max() < 1e-8


def test_gbar_pair_matches_cross_products(asym_params):
    # the coefficient tensor against the eight cross products it replaces,
    # on the presets, a fixed asymmetric beam and random beams
    rng = np.random.default_rng(11)
    beams = [asym_params] + [s.params for s in PRESETS.values()]
    beams += [random_params(rng) for _ in range(20)]
    for params in beams:
        m = derive_matrices(params)
        assert np.count_nonzero(m.quadratic) == 48
        for u, v in (
            (rng.normal(size=12), rng.normal(size=12)),
            (rng.normal(size=(257, 12)), rng.normal(size=(257, 12))),
            (rng.normal(size=12), rng.normal(size=(12, 12))),
        ):
            oracle = paper_gbar_pair(m, u, v)
            got = gbar_pair(m, u, v)
            assert got.shape == oracle.shape
            assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_g_diag_consistency(asym_matrices):
    assert np.all(g_diag(asym_matrices, np.zeros(12)) == 0.0)
    rng = np.random.default_rng(5)
    qd = asym_matrices.energy_char
    for _ in range(50):
        y = rng.normal(size=12)
        r = y @ asym_matrices.to_char.T
        assert abs(float(np.dot(r * qd, g_diag(asym_matrices, r)))) <= 1e-12 * float(r @ r)
        assert np.abs(
            g_diag(asym_matrices, r) - gbar(asym_matrices, y) @ asym_matrices.to_char.T
        ).max() < 1e-12


def test_representation_roundtrip(toy_matrices, toy_reference):
    rng = np.random.default_rng(6)
    values = rng.normal(size=(len(toy_reference.grid), 12))
    state = StateField(toy_reference.grid, "physical", values, 0.5)
    diag = to_diagonal(state, toy_matrices)
    assert diag.repr == "diagonal" and diag.time == 0.5
    back = to_physical(diag, toy_matrices)
    assert np.abs(back.values - values).max() < 1e-12
    zero = StateField(toy_reference.grid, "physical", np.zeros_like(values), 0.0)
    assert np.all(to_diagonal(zero, toy_matrices).values == 0.0)
    with pytest.raises(ValueError):
        to_diagonal(diag, toy_matrices)
    with pytest.raises(ValueError):
        to_physical(state, toy_matrices)


def test_clamped_end_maps_to_char_reflection(toy_matrices, toy_reference):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(len(toy_reference.grid), 12))
    values[-1, :6] = 0.0  # clamped: zero velocities at x = L
    state = StateField(toy_reference.grid, "physical", values, 0.0)
    r = to_diagonal(state, toy_matrices).values
    assert np.abs(r[-1, :6] + r[-1, 6:]).max() < 1e-12


def test_pose_to_intrinsic_static(toy_params):
    ref = curved_reference(toy_params, 24, np.zeros(3))
    times = np.linspace(0.0, 1.0, 9)
    n = len(ref.grid)
    line = np.stack([ref.grid, np.zeros(n), np.zeros(n)], axis=1)

    class Pose:
        pass

    pose = Pose()
    pose.times = times
    pose.R = np.broadcast_to(np.eye(3), (len(times), n, 3, 3))
    pose.p = np.broadcast_to(line, (len(times), n, 3)).copy()
    values = strains_velocities_from_pose(pose, ref)
    assert values.shape == (len(times), n, 12)
    for row in values:
        assert np.abs(row).max() < 1e-12


def test_pose_to_intrinsic_rigid_translation(toy_params):
    ref = curved_reference(toy_params, 24, np.zeros(3))
    times = np.linspace(0.0, 1.0, 9)
    n = len(ref.grid)
    c = np.array([0.3, -0.2, 0.5])
    line = np.stack([ref.grid, np.zeros(n), np.zeros(n)], axis=1)

    class Pose:
        pass

    pose = Pose()
    pose.times = times
    pose.R = np.broadcast_to(np.eye(3), (len(times), n, 3, 3))
    pose.p = line[None, :, :] + times[:, None, None] * c[None, None, :]
    for row in strains_velocities_from_pose(pose, ref):
        assert np.abs(row[:, 0:3] - c).max() < 1e-10  # V = R^T c = c
        assert np.abs(row[:, 3:]).max() < 1e-10


def test_pose_to_intrinsic_flags_bad_rotations(toy_params):
    ref = curved_reference(toy_params, 8, np.zeros(3))
    times = np.linspace(0.0, 1.0, 5)
    n = len(ref.grid)

    class Pose:
        pass

    pose = Pose()
    pose.times = times
    pose.R = np.broadcast_to(np.eye(3) * 1.01, (len(times), n, 3, 3))
    pose.p = np.zeros((len(times), n, 3))
    with pytest.raises(NotARotation):
        strains_velocities_from_pose(pose, ref)


def test_dissipative_boundary_predicate(toy_matrices):
    ok, value = dissipative_boundary(toy_matrices)
    assert ok and value < 1.0
    # closed form of the scaled row sums: max((1+eps) max|kappa|, 1/(1+eps))
    for eps in (1e-3, 0.5):
        _, val = dissipative_boundary(toy_matrices, eps=eps)
        kmax = np.abs(toy_matrices.kappa).max()
        assert val == pytest.approx(max((1 + eps) * kmax, 1.0 / (1 + eps)), rel=1e-12)


def test_reference_csv_roundtrip(asym_params):
    m = derive_matrices(asym_params)
    ref = curved_reference(asym_params, 10, np.array([0.4, 0.1, -0.2]))
    text = reference_to_csv(ref)
    back = reference_from_csv(text, m)
    assert np.abs(back.grid - ref.grid).max() == 0.0
    assert np.abs(back.rotation - ref.rotation).max() < 1e-15
    assert np.abs(back.curvature - ref.curvature).max() < 1e-15
    assert np.abs(back.coupling_char - ref.coupling_char).max() < 1e-12
