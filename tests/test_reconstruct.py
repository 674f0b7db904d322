import numpy as np
import pytest

from beamstab.errors import EndpointMismatch, NotARotation, ZeroQuaternion
from beamstab.model import (
    StateField,
    curved_reference,
    hat,
    reference_centerline,
    straight_reference,
)
from beamstab.params import derive_matrices
from beamstab.reconstruct import (
    PoseField,
    decay_observable,
    pose_residuals_to_csv,
    pose_snapshot_to_csv,
    quaternion_from_rotation,
    reconstruct_centerline,
    reconstruct_rotation,
    rotation_from_quaternion,
    roundtrip_error,
    run_pipeline,
    umap,
)
from beamstab.solver import SimConfig, fit_decay, generate_initial_datum, simulate, time_step


def axis_rotation(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if axis == 0:
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    if axis == 2:
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    raise ValueError


def random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return rotation_from_quaternion(q / np.linalg.norm(q))


def zero_states(ref, n_times=9, t_end=1.0):
    times = np.linspace(0.0, t_end, n_times)
    return [
        StateField(ref.grid, "physical", np.zeros((len(ref.grid), 12)), float(t))
        for t in times
    ]


class TestUmap:
    def test_zero(self):
        assert np.all(umap(np.zeros(3)) == 0.0)

    def test_skew_and_null_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=3)
            u = umap(v)
            assert np.abs(u + u.T).max() == 0.0
            q = rng.normal(size=4)
            assert abs(q @ u @ q) < 1e-14 * (q @ q)

    def test_square_is_scalar(self):
        # U(v)^2 = -|v/2|^2 I underpins the closed-form exponential stepper
        v = np.array([0.4, -1.2, 0.7])
        u = umap(v)
        assert np.abs(u @ u + 0.25 * (v @ v) * np.eye(4)).max() < 1e-14


class TestQuaternionRotation:
    def test_identity(self):
        assert np.abs(rotation_from_quaternion(np.array([1.0, 0, 0, 0])) - np.eye(3)).max() == 0.0
        assert np.array_equal(quaternion_from_rotation(np.eye(3)), [1.0, 0, 0, 0])

    def test_axis_angle(self):
        theta = 0.73
        q = np.array([np.cos(theta / 2), np.sin(theta / 2), 0.0, 0.0])
        assert np.abs(rotation_from_quaternion(q) - axis_rotation(0, theta)).max() < 1e-14

    def test_sign_ambiguity(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert np.abs(
            rotation_from_quaternion(q) - rotation_from_quaternion(-q)
        ).max() < 1e-14

    def test_half_turn_convention(self):
        q = quaternion_from_rotation(axis_rotation(2, np.pi))
        assert np.abs(q - np.array([0.0, 0.0, 0.0, 1.0])).max() < 1e-12

    def test_roundtrip_many(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            r = random_rotation(rng)
            q = quaternion_from_rotation(r)
            assert q[0] >= 0.0
            assert np.abs(rotation_from_quaternion(q) - r).max() < 1e-10

    def test_zero_quaternion(self):
        with pytest.raises(ZeroQuaternion):
            rotation_from_quaternion(np.zeros(4))

    def test_not_a_rotation(self):
        with pytest.raises(NotARotation):
            quaternion_from_rotation(np.eye(3) * 1.001)
        with pytest.raises(NotARotation):
            quaternion_from_rotation(np.diag([1.0, 1.0, -1.0]))  # det = -1


class TestReconstructRotation:
    def test_trivial_zero_field(self, toy_params):
        ref = straight_reference(toy_params, 24)
        pose = reconstruct_rotation(zero_states(ref), ref, np.eye(3))
        assert np.abs(pose.q - np.array([1.0, 0, 0, 0])).max() < 1e-14
        assert np.abs(pose.R - np.eye(3)).max() < 1e-13
        assert pose.residual_rotation.max() < 1e-13

    def test_constant_twist_closed_form(self, toy_params):
        tau = 0.9
        ref = curved_reference(toy_params, 96, lambda x: np.array([tau, 0.0, 0.0]))
        pose = reconstruct_rotation(zero_states(ref), ref, np.eye(3))
        length = toy_params.length
        for k, x in enumerate(ref.grid):
            expected = axis_rotation(0, tau * (x - length))
            assert np.abs(pose.R[0, k] - expected).max() < 1e-10
        assert pose.norm_defect < 1e-12
        # the audited x-equation residual is differencing-limited, O(dx^2 tau^3)
        gentle = curved_reference(toy_params, 128, lambda x: np.array([0.1, 0.0, 0.0]))
        pose_g = reconstruct_rotation(zero_states(gentle), gentle, np.eye(3))
        assert pose_g.residual_rotation.max() < 1e-8

    def test_nonunit_seed_rejected(self, toy_params):
        """The seed is a rotation matrix: any other shape, or a non-rotation, is refused."""
        ref = straight_reference(toy_params, 16)
        for seed in (np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]),
                     np.zeros(5), np.eye(4), np.eye(3) * 1.001, np.diag([1.0, 1.0, -1.0])):
            with pytest.raises(NotARotation):
                reconstruct_rotation(zero_states(ref), ref, seed)


class TestReconstructCenterline:
    def test_zero_field_keeps_initial_shape(self, toy_params):
        ref = straight_reference(toy_params, 24)
        states = zero_states(ref)
        pose = reconstruct_rotation(states, ref, np.eye(3))
        line = reference_centerline(ref)
        pose = reconstruct_centerline(states, pose, line, line[-1])
        assert np.abs(pose.p - line[None, :, :]).max() < 1e-13
        assert pose.residual_centerline.max() < 1e-12
        assert pose.route_gap < 1e-12

    def test_rigid_translation(self, toy_params):
        # constant body-frame velocity c with zero strains: p = p0 + t c
        ref = straight_reference(toy_params, 24)
        c = np.array([0.2, -0.4, 0.1])
        times = np.linspace(0.0, 1.0, 11)
        states = []
        for t in times:
            values = np.zeros((len(ref.grid), 12))
            values[:, 0:3] = c
            states.append(StateField(ref.grid, "physical", values, float(t)))
        pose = reconstruct_rotation(states, ref, np.eye(3))
        line = reference_centerline(ref)
        pose = reconstruct_centerline(states, pose, line, line[-1])
        for k, t in enumerate(times):
            assert np.abs(pose.p[k] - (line + t * c)).max() < 1e-12

    def test_endpoint_mismatch(self, toy_params):
        ref = straight_reference(toy_params, 16)
        states = zero_states(ref)
        pose = reconstruct_rotation(states, ref, np.eye(3))
        line = reference_centerline(ref)
        with pytest.raises(EndpointMismatch):
            reconstruct_centerline(states, pose, line, line[-1] + 1e-6)


def simulate_and_reconstruct(params, matrices, n, t_end=0.5, seed=5):
    ref = straight_reference(params, n)
    datum = generate_initial_datum(matrices, ref, 1e-2, seed=seed, order=1)
    cfg = SimConfig(n_cells=n, cfl=0.9, t_end=t_end, output_stride=1)
    _, states, pose = run_pipeline(cfg, matrices, ref, datum)
    return ref, states, pose


def test_pipeline_keeps_one_copy_of_the_history(toy_params, toy_matrices):
    ref = straight_reference(toy_params, 32, toy_matrices)
    datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=5, order=1)
    raggedness = []
    for t_end in (0.25, 0.26, 0.27):
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=t_end, output_stride=3)
        _, n_steps = time_step(cfg, toy_matrices)
        raggedness.append(n_steps % 3)
        traj, states, pose = run_pipeline(cfg, toy_matrices, ref, datum)
        kept = n_steps // 3 + 1
        # a ragged final record is simulated but not reconstructed
        assert len(traj.times) == kept + (1 if n_steps % 3 else 0)
        assert traj.snapshots == []
        assert len(states) == kept == len(pose.times)
        assert [s.repr for s in states] == ["physical"] * kept
        assert np.array_equal([s.time for s in states], traj.times[:kept])
    assert sorted(raggedness) == [0, 1, 2]


def test_roundtrip_first_order_convergence(toy_params, toy_matrices):
    ref1, states1, pose1 = simulate_and_reconstruct(toy_params, toy_matrices, 64)
    ref2, states2, pose2 = simulate_and_reconstruct(toy_params, toy_matrices, 128)
    for pose in (pose1, pose2):
        assert pose.norm_defect < 1e-10
        defect = np.abs(
            np.einsum("tnji,tnjk->tnik", pose.R, pose.R) - np.eye(3)
        ).max()
        assert defect < 1e-9

    e1 = roundtrip_error(pose1, states1, ref1)
    e2 = roundtrip_error(pose2, states2, ref2)
    assert 1.7 <= e1 / e2 <= 2.3
    rr1, rr2 = pose1.residual_rotation.max(), pose2.residual_rotation.max()
    assert 1.7 <= rr1 / rr2 <= 2.3
    rp1, rp2 = pose1.residual_centerline.max(), pose2.residual_centerline.max()
    assert 1.7 <= rp1 / rp2 <= 2.3


def test_decay_observable(toy_params, toy_matrices):
    ref = straight_reference(toy_params, 24)
    states = zero_states(ref)
    pose = reconstruct_rotation(states, ref, np.eye(3))
    times, values = decay_observable(pose, states)
    assert np.all(values == 0.0)

    rng = np.random.default_rng(23)
    rich = []
    for t in np.linspace(0.0, 1.0, 7):
        vals = rng.normal(size=(len(ref.grid), 12)) * 1e-2
        rich.append(StateField(ref.grid, "physical", vals, float(t)))
    pose2 = reconstruct_rotation(rich, ref, np.eye(3))
    _, obs = decay_observable(pose2, rich)
    y = np.stack([s.values for s in rich])
    # oracle: the pose form of the witness, with the rotations applied
    expected = (
        np.linalg.norm(np.einsum("tnij,tnj->tni", pose2.R, y[:, :, 0:3]), axis=-1)
        + np.linalg.norm(pose2.R @ hat(y[:, :, 3:6]), ord=2, axis=(-2, -1))
        + np.linalg.norm(y[:, :, 6:9], axis=-1)
        + np.linalg.norm(y[:, :, 9:12], axis=-1)
    ).max(axis=1)
    # rotation invariance: |R y1| = |y1| and ||R hat(y2)|| = |y2|
    assert np.abs(obs - expected).max() < 1e-12


def test_observable_decays_on_stable_run(toy_params, toy_matrices):
    ref, states, pose = simulate_and_reconstruct(toy_params, toy_matrices, 48, t_end=6.0)
    times, values = decay_observable(pose, states)
    alpha, _, _ = fit_decay(times, values, t_min=1.0)
    assert alpha > 0.0


def test_norm_drift_with_and_without_renormalization(toy_params, toy_matrices):
    """Both sweeps renormalize every step, so the quaternion norm drift stays at roundoff."""
    ref, states, _ = simulate_and_reconstruct(toy_params, toy_matrices, 48, t_end=1.0)
    pose = reconstruct_rotation(states, ref, ref.rotation[-1])
    assert pose.norm_defect <= 1e-10


def test_pose_csv_outputs(toy_params, toy_matrices):
    ref, states, pose = simulate_and_reconstruct(toy_params, toy_matrices, 32, t_end=0.3)
    snap = pose_snapshot_to_csv(pose, 0)
    assert snap.splitlines()[1] == "x,p1,p2,p3,q0,q1,q2,q3"
    assert len(snap.splitlines()) == len(ref.grid) + 2
    resid = pose_residuals_to_csv(pose)
    assert "norm_defect" in resid and "route_gap" in resid
    assert len(resid.splitlines()) == len(pose.times) + 3
