import mmap
import os
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pose_oracle
from beamstab import forked, model, reconstruct, solver, xsweep
from beamstab.certificate import build_certificate
from beamstab.errors import EndpointMismatch, NotARotation, ZeroQuaternion
from beamstab.fd import cumulative_trapezoid
from beamstab.model import (
    StateField,
    curved_reference,
    hat,
    reference_centerline,
)
from beamstab.params import derive_matrices
from beamstab.scenarios import build_reference, load_scenario
from beamstab.reconstruct import (
    MAX_POSE_SNAPSHOTS,
    decay_observable,
    pose_residuals_to_csv,
    pose_snapshot_to_csv,
    quaternion_from_rotation,
    reconstruct_centerline,
    reconstruct_rotation,
    rotation_from_quaternion,
    run_pipeline,
    umap,
)
from beamstab.solver import (
    SimConfig,
    fit_decay,
    generate_initial_datum,
    time_step,
    trajectory_to_csv,
)


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
        ref = curved_reference(toy_params, 24, np.zeros(3))
        pose = reconstruct_rotation(zero_states(ref), ref, np.eye(3))
        assert np.abs(pose.q - np.array([1.0, 0, 0, 0])).max() < 1e-14
        assert np.abs(pose.R - np.eye(3)).max() < 1e-13
        assert pose.residual_rotation.max() < 1e-13

    def test_constant_twist_closed_form(self, toy_params):
        tau = 0.9
        ref = curved_reference(toy_params, 96, np.array([tau, 0.0, 0.0]))
        pose = reconstruct_rotation(zero_states(ref), ref, np.eye(3))
        length = toy_params.length
        for k, x in enumerate(ref.grid):
            expected = axis_rotation(0, tau * (x - length))
            assert np.abs(pose.R[0, k] - expected).max() < 1e-10
        assert pose.norm_defect < 1e-12
        # the audited x-equation residual is differencing-limited, O(dx^2 tau^3)
        gentle = curved_reference(toy_params, 128, np.array([0.1, 0.0, 0.0]))
        pose_g = reconstruct_rotation(zero_states(gentle), gentle, np.eye(3))
        assert pose_g.residual_rotation.max() < 1e-8

    def test_nonunit_seed_rejected(self, toy_params):
        """The seed is a rotation matrix: any other shape, or a non-rotation, is refused."""
        ref = curved_reference(toy_params, 16, np.zeros(3))
        for seed in (np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]),
                     np.zeros(5), np.eye(4), np.eye(3) * 1.001, np.diag([1.0, 1.0, -1.0])):
            with pytest.raises(NotARotation):
                reconstruct_rotation(zero_states(ref), ref, seed)


class TestReconstructCenterline:
    def test_zero_field_keeps_initial_shape(self, toy_params):
        ref = curved_reference(toy_params, 24, np.zeros(3))
        states = zero_states(ref)
        pose = reconstruct_rotation(states, ref, np.eye(3))
        line = reference_centerline(ref)
        pose = reconstruct_centerline(states, pose, line, line[-1])
        assert np.abs(pose.p - line[None, :, :]).max() < 1e-13
        assert pose.residual_centerline.max() < 1e-12
        assert pose.route_gap < 1e-12

    def test_rigid_translation(self, toy_params):
        # constant body-frame velocity c with zero strains: p = p0 + t c
        ref = curved_reference(toy_params, 24, np.zeros(3))
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
        ref = curved_reference(toy_params, 16, np.zeros(3))
        states = zero_states(ref)
        pose = reconstruct_rotation(states, ref, np.eye(3))
        line = reference_centerline(ref)
        with pytest.raises(EndpointMismatch):
            reconstruct_centerline(states, pose, line, line[-1] + 1e-6)


def _stage_points(grid):
    """The RK4 stage points x, x + h/2, x + h of the x-sweep's steps, h = -dx."""
    h = -float(grid[1] - grid[0])
    x = grid[1:]
    return np.stack([x, x + 0.5 * h, x + h], axis=1).ravel()


@pytest.mark.parametrize("n_cells", [16, 17, 64, 256, 1024, 8192])
def test_spline_is_scipys_cubic_spline(n_cells):
    """The library's not-a-knot spline gives scipy's coefficients and values
    bit for bit, over lengths and value scales, at the sweep's stage points."""
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(n_cells)
    for length in (0.7, 1.0, 2.0, 10.0):
        grid = np.linspace(0.0, length, n_cells + 1)
        at = _stage_points(grid)
        for scale in (1e-6, 1e-2, 1.0, 1e3):
            y = scale * rng.normal(size=(len(grid), 3)) + rng.normal(size=3)
            oracle = CubicSpline(grid, y, axis=0)
            coeffs = xsweep.not_a_knot(grid, y)
            case = (length, scale)
            assert coeffs.shape == oracle.c.shape, case
            assert np.array_equal(coeffs.view(np.uint64), oracle.c.view(np.uint64)), case
            values = xsweep.evaluate(grid, coeffs, at)
            assert np.array_equal(values.view(np.uint64), oracle(at).view(np.uint64)), case


def test_tridiagonal_solve_is_lapacks_elimination():
    """Random systems dominant by rows and by columns, on which ``dgtsv``
    swaps no row, give ``solve_banded``'s bits; a right-hand side of signed
    zeros checks the zero fill-in term of the back substitution."""
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(3)
    for n in (4, 5, 9, 33):
        for _ in range(20):
            dl, du = rng.normal(size=n - 1), rng.normal(size=n - 1)
            off = np.zeros(n)
            off[1:] += np.abs(dl) + np.abs(du)
            off[:-1] += np.abs(dl) + np.abs(du)
            d = rng.choice([-1.0, 1.0], size=n) * (off + rng.uniform(0.01, 1.0, size=n))
            b = rng.normal(size=(n, 3))
            b[:, 2] = rng.choice([-0.0, 0.0], size=n)
            banded = np.zeros((3, n))
            banded[0, 1:], banded[1], banded[2, :-1] = du, d, dl
            x = xsweep._tridiagonal_solve(dl, d, du, b)
            assert x.tobytes() == solve_banded((1, 1), banded, b).tobytes()


@pytest.mark.parametrize(
    "dl, d",
    [
        ([2.0, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0]),  # the first pivot is below the diagonal
        ([0.5, 3.0, 0.5], [1.0, 1.0, 1.0, 1.0]),  # the second, once the first is eliminated
    ],
)
def test_tridiagonal_solve_refuses_a_row_swap(dl, d):
    """A system on which ``dgtsv`` would swap rows trips the solve's check."""
    du = np.ones(3)
    with pytest.raises(AssertionError, match="swap rows"):
        xsweep._tridiagonal_solve(np.array(dl), np.array(d), du, np.ones((4, 3)))


@pytest.mark.parametrize("n_cells", [16, 17, 1000, 65536])
def test_not_a_knot_swaps_no_row_on_even_grids(toy_params, n_cells):
    """The not-a-knot system of every evenly spaced grid ``curved_reference``
    builds passes the solve's no-swap check, short or long."""
    y = np.random.default_rng(n_cells).normal(size=(n_cells + 1, 3))
    for length in (1e-3, 1.0, 1e3):
        grid = curved_reference(replace(toy_params, length=length), n_cells, np.zeros(3)).grid
        assert np.all(np.isfinite(xsweep.not_a_knot(grid, y)))


@pytest.mark.parametrize("preset", ["straight-toy", "straight-steel", "helical"])
def test_sweep_x_is_the_scipy_sweep(preset):
    """The x-sweep at t = 0 gives the bits of the sweep on scipy's spline."""
    scenario = load_scenario(preset)
    matrices = derive_matrices(scenario.params)
    ref = build_reference(scenario, matrices)
    datum = generate_initial_datum(matrices, ref, 1e-2, seed=5, order=1)
    r_in = ref.rotation[-1]
    q0 = reconstruct._sweep_x(datum.values, ref, r_in)
    assert q0.tobytes() == pose_oracle.sweep_x(datum.values, ref, r_in).tobytes()


def simulate_and_reconstruct(params, matrices, n, t_end=0.5, seed=5):
    ref = curved_reference(params, n, np.zeros(3))
    datum = generate_initial_datum(matrices, ref, 1e-2, seed=seed, order=1)
    cfg = SimConfig(n_cells=n, cfl=0.9, t_end=t_end, output_stride=1)
    _, pose = run_pipeline(cfg, matrices, ref, datum)
    return ref, pose


def test_pipeline_keeps_one_copy_of_the_history(toy_params, toy_matrices):
    """The pipeline keeps no copy of the history: the trajectory has no
    snapshots, and the reconstruction is per-time scalars and snapshots."""
    ref = curved_reference(toy_params, 32, np.zeros(3), toy_matrices)
    datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=5, order=1)
    raggedness = []
    for t_end in (0.25, 0.26, 0.27):
        cfg = SimConfig(n_cells=32, cfl=0.9, t_end=t_end, output_stride=3)
        _, n_steps = time_step(cfg, toy_matrices, ref)
        raggedness.append(n_steps % 3)
        traj, pose = run_pipeline(cfg, toy_matrices, ref, datum)
        kept = n_steps // 3 + 1
        # a ragged final record is simulated but not reconstructed
        assert len(traj.times) == kept + (1 if n_steps % 3 else 0)
        assert traj.snapshots == []
        assert len(pose.times) == kept
        assert np.array_equal(pose.times, traj.times[:kept])
    assert sorted(raggedness) == [0, 1, 2]


def test_velocity_computed_once_per_row(toy_params, toy_matrices, monkeypatch):
    """R y1 is formed once per lattice row: the audits read the rows the
    time quadrature formed."""
    blocks = []
    original = reconstruct._velocity

    def counting(rot, y):
        blocks.append(y.copy())
        return original(rot, y)

    monkeypatch.setattr(reconstruct, "_velocity", counting)
    ref = curved_reference(toy_params, 16, np.zeros(3))
    datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=5, order=1)
    cfg = SimConfig(n_cells=16, cfl=0.9, t_end=1.0, output_stride=1)
    _, pose = run_pipeline(cfg, toy_matrices, ref, datum)
    _, states, _ = pose_oracle.run_pipeline(cfg, toy_matrices, ref, datum)
    # the blocks' rows, in the order formed, are the lattice's rows, each once
    assert sum(len(y) for y in blocks) == len(pose.times) == len(states)
    assert np.array_equal(np.concatenate(blocks), np.stack([s.values for s in states]))


def test_each_simulated_state_is_evaluated_once(toy_params, toy_matrices, monkeypatch):
    """On a stride-1 run with a certificate, y = L^-1 r, the coupling product
    and the nonlinearity are each formed 2 n_steps + 1 times, once per
    simulated state: the record, its Lyapunov functional and the pass read
    the terms the step formed, and the pass converts no record again."""
    ref = curved_reference(toy_params, 16, np.array([1.0, 0.0, 0.5]), toy_matrices)
    cert = build_certificate(toy_matrices, ref, m=1, phi0=1.0, phiL=None)
    datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=5, order=1)
    cfg = SimConfig(n_cells=16, cfl=0.9, t_end=0.3, output_stride=1)
    # counted in memory the forked child shares, so the child's calls count too
    counts = np.frombuffer(mmap.mmap(-1, 24), dtype=np.int64)
    targets = ((model, "to_physical"), (solver, "_couple"), (solver, "gbar"))
    for i, (module, name) in enumerate(targets):
        def counting(*args, _original=getattr(module, name), _i=i):
            counts[_i] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    traj, pose = run_pipeline(cfg, toy_matrices, ref, datum, cert=cert)
    assert len(pose.times) == traj.steps + 1
    n_states = 2 * traj.steps + 1
    calls = {name: int(count) for (_, name), count in zip(targets, counts)}
    assert calls == {"to_physical": n_states, "_couple": n_states, "gbar": n_states}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_bits(a, b, path="result"):
    """Two results field by field: arrays by their bytes, dataclasses recursively."""
    if is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for f in fields(a):
            _assert_same_bits(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_bits(x, y, f"{path}[{i}]")
    elif isinstance(a, (np.ndarray, float)):
        assert _bits(a) == _bits(b) and np.shape(a) == np.shape(b), path
    else:
        assert a == b, path


def test_the_in_process_branch_gives_the_forked_bits(toy_params, toy_matrices, monkeypatch):
    """Where no fork is used, the simulation runs in this process before
    the pass has its records, and every returned value has the same bits."""
    cfg, ref, datum = _toy_run(toy_params, toy_matrices, 61, 2)
    cert = build_certificate(toy_matrices, ref, m=1, phi0=1.0, phiL=None)
    assert reconstruct._FORK
    forked = run_pipeline(cfg, toy_matrices, ref, datum, cert=cert)
    _assert_no_child_left()
    monkeypatch.setattr(reconstruct, "_FORK", False)
    _assert_same_bits(forked, run_pipeline(cfg, toy_matrices, ref, datum, cert=cert))


def test_a_pass_error_stops_the_simulation(toy_params, toy_matrices, monkeypatch):
    """An error of the pass on its third block propagates at once: this
    process closes the pipe, the child fails its next write and ends long
    before its last record, and no child is left behind.  The run is long
    enough that the child fills the pipe before the pass fails."""
    ref = curved_reference(toy_params, 128, np.array([1.0, 0.0, 0.5]), toy_matrices)
    datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=5, order=1)
    cfg = SimConfig(n_cells=128, cfl=0.9, t_end=1.5, output_stride=1)
    n_records = time_step(cfg, toy_matrices, ref)[1] + 1
    in_pipe = forked.PIPE_BYTES // (len(ref.grid) * 12 * 8)  # records a full pipe holds
    assert n_records - 3 * reconstruct.TIME_BLOCK > 2 * in_pipe

    rotated = []
    rotate = reconstruct._Pass._rotate

    def failing(self, lo, hi):
        rotated.append(lo)
        if len(rotated) == 3:
            raise ZeroQuaternion("raised by the test")
        rotate(self, lo, hi)

    sent = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)  # shared with the child
    simulate = solver.simulate

    def counting(*args, on_record, **kwargs):
        def send(record):
            sent[0] += 1
            on_record(record)

        return simulate(*args, on_record=send, **kwargs)

    monkeypatch.setattr(reconstruct._Pass, "_rotate", failing)
    monkeypatch.setattr(solver, "simulate", counting)
    with pytest.raises(ZeroQuaternion, match="raised by the test"):
        run_pipeline(cfg, toy_matrices, ref, datum)
    _assert_no_child_left()
    assert len(rotated) == 3
    assert 3 * reconstruct.TIME_BLOCK <= sent[0] < n_records - in_pipe


def test_an_error_in_the_child_is_raised_with_its_traceback(toy_params, toy_matrices, monkeypatch):
    """An exception of the simulation is raised here with its type and
    message, caused by the child's traceback as text."""
    parent = os.getpid()

    def failing(*args, **kwargs):
        assert os.getpid() != parent, "not simulated in a child"
        raise ArithmeticError("raised in the child")

    monkeypatch.setattr(solver, "simulate", failing)
    cfg, ref, datum = _toy_run(toy_params, toy_matrices, 9, 1)
    with pytest.raises(ArithmeticError, match="raised in the child") as info:
        run_pipeline(cfg, toy_matrices, ref, datum)
    _assert_no_child_left()
    assert "in failing" in str(info.value.__cause__)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _toy_run(params, matrices, n_steps, stride):
    """A toy run of ``n_steps`` steps on N = 16, recorded every ``stride``."""
    ref = curved_reference(params, 16, np.array([1.0, 0.0, 0.5]), matrices)
    datum = generate_initial_datum(matrices, ref, 1e-2, seed=5, order=1)
    dt_max = 0.9 * ref.dx / np.abs(matrices.wave_speeds).max()  # the step at cfl 0.9
    cfg = SimConfig(n_cells=16, t_end=(n_steps - 0.5) * dt_max, output_stride=stride)
    assert time_step(cfg, matrices, ref)[1] == n_steps
    return cfg, ref, datum


def _assert_pipeline_is_the_oracle(cfg, matrices, ref, datum, case):
    """``run_pipeline`` gives the oracle's bits on every output ``reconstruct`` writes."""
    traj, pose = run_pipeline(cfg, matrices, ref, datum)
    whole_traj, states, whole = pose_oracle.run_pipeline(cfg, matrices, ref, datum)
    assert trajectory_to_csv(traj) == trajectory_to_csv(whole_traj), case
    assert _bits(pose.times) == _bits(whole.times), case
    for name in ("residual_rotation", "residual_centerline", "norm_defect", "route_gap"):
        assert _bits(getattr(pose, name)) == _bits(getattr(whole, name)), (case, name)
    roundtrip = pose_oracle.roundtrip_error(whole, states, ref)
    assert _bits(pose.roundtrip_error) == _bits(roundtrip), case
    assert _bits(pose.observable) == _bits(pose_oracle.decay_observable(whole, states)[1])
    rows = sorted(set(np.linspace(0, len(whole.times) - 1, MAX_POSE_SNAPSHOTS).astype(int)))
    assert pose.indices == rows, case
    for name in ("times", "q", "p"):
        expected = getattr(whole, name)[rows]
        assert _bits(getattr(pose.snapshots, name)) == _bits(expected), (case, name)


def test_streamed_pass_is_the_whole_lattice_pipeline(toy_params, toy_matrices, monkeypatch):
    """``run_pipeline`` gives the bits of the whole-lattice oracle on every
    output ``reconstruct`` writes, at blocks of 2, 7 and T samples.

    The runs end on a ragged record (n_steps % stride = 1 and 2) or not,
    and include lattices of 3 and 4 samples, where the halo of the last
    block reaches back across a block edge, and of 3 and 17 samples, whose
    last block of 2 holds a single sample.
    """
    for n_steps, stride in ((9, 4), (11, 3), (50, 3), (61, 2), (40, 1)):
        cfg, ref, datum = _toy_run(toy_params, toy_matrices, n_steps, stride)
        n_times = n_steps // stride + 1
        for block in (2, 7, n_times):
            monkeypatch.setattr(reconstruct, "TIME_BLOCK", block)
            _assert_pipeline_is_the_oracle(cfg, toy_matrices, ref, datum, (n_steps, stride, block))


@settings(max_examples=30, deadline=None)
@given(
    block=st.integers(2, 9),
    n_times=st.integers(3, 40),
    stride=st.integers(1, 3),
    ragged=st.integers(0, 2),
)
def test_any_block_size_gives_the_oracle_bits(toy_params, toy_matrices, block, n_times, stride,
                                              ragged):
    """Any block of 2 to 9 samples, on any lattice of 3 to 40 samples with
    or without a ragged final record, gives the whole-lattice oracle's bits."""
    n_steps = (n_times - 1) * stride + ragged % stride
    cfg, ref, datum = _toy_run(toy_params, toy_matrices, n_steps, stride)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconstruct, "TIME_BLOCK", block)
        _assert_pipeline_is_the_oracle(cfg, toy_matrices, ref, datum, (n_steps, stride, block))


def test_a_block_of_one_sample_is_refused(toy_params, monkeypatch):
    """A block of one sample holds no time step, and its halo ends past the
    next block's first row, so the pass and the block loop refuse it."""
    monkeypatch.setattr(reconstruct, "TIME_BLOCK", 1)
    ref = curved_reference(toy_params, 16, np.array([1.0, 0.0, 0.5]))
    with pytest.raises(AssertionError):
        reconstruct._Pass(ref, 9)
    with pytest.raises(AssertionError):
        next(reconstruct._blocks(9))


def test_roundtrip_first_order_convergence(toy_params, toy_matrices):
    _, pose1 = simulate_and_reconstruct(toy_params, toy_matrices, 64)
    _, pose2 = simulate_and_reconstruct(toy_params, toy_matrices, 128)
    for pose in (pose1, pose2):
        assert pose.norm_defect < 1e-10
        rot = rotation_from_quaternion(pose.snapshots.q)
        defect = np.abs(np.einsum("tnji,tnjk->tnik", rot, rot) - np.eye(3)).max()
        assert defect < 1e-9

    e1 = pose1.roundtrip_error
    e2 = pose2.roundtrip_error
    assert 1.7 <= e1 / e2 <= 2.3
    rr1, rr2 = pose1.residual_rotation.max(), pose2.residual_rotation.max()
    assert 1.7 <= rr1 / rr2 <= 2.3
    rp1, rp2 = pose1.residual_centerline.max(), pose2.residual_centerline.max()
    assert 1.7 <= rp1 / rp2 <= 2.3


def test_decay_observable(toy_params, toy_matrices):
    ref = curved_reference(toy_params, 24, np.zeros(3))
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
    _, pose = simulate_and_reconstruct(toy_params, toy_matrices, 48, t_end=6.0)
    alpha, _, _ = fit_decay(pose.times, pose.observable, t_min=1.0)
    assert alpha > 0.0


def test_norm_drift_with_and_without_renormalization(toy_params, toy_matrices):
    """Both sweeps renormalize every step, so the quaternion norm drift stays at roundoff."""
    _, pose = simulate_and_reconstruct(toy_params, toy_matrices, 48, t_end=1.0)
    assert pose.norm_defect <= 1e-10


def test_pose_csv_outputs(toy_params, toy_matrices):
    ref, pose = simulate_and_reconstruct(toy_params, toy_matrices, 32, t_end=0.3)
    snap = pose_snapshot_to_csv(pose.snapshots, 0)
    assert snap.splitlines()[1] == "x,p1,p2,p3,q0,q1,q2,q3"
    assert len(snap.splitlines()) == len(ref.grid) + 2
    resid = pose_residuals_to_csv(pose)
    assert "norm_defect" in resid and "route_gap" in resid
    assert len(resid.splitlines()) == len(pose.times) + 3


def rich_run(params, n_times, n_cells=16):
    """Random intrinsic states on a curved beam, their pose and centerline.

    The linear velocity y1 is uniform in x, random in t, far larger than
    the other blocks and growing with t, and the samples span 0.01.  So the
    round trip's sup error sits in V = R^T dt p at a late sample, where the
    first time difference of a window is not the lattice's own to the bit.
    """
    ref = curved_reference(params, n_cells, np.array([1.0, 0.0, 0.5]))
    rng = np.random.default_rng(11)
    states = []
    for k, t in enumerate(np.linspace(0.0, 0.01, n_times)):
        values = 1e-2 * rng.normal(size=(len(ref.grid), 12))
        values[:, 0:3] = (1 + k) * rng.normal(size=3)
        states.append(StateField(ref.grid, "physical", values, float(t)))
    pose = reconstruct_rotation(states, ref, ref.rotation[-1])
    line = reference_centerline(ref)
    return ref, states, reconstruct_centerline(states, pose, line, line[-1])


def test_time_blocks_do_not_change_the_results(toy_params, monkeypatch):
    """Blocks of 2 and 7 samples give the bits of one block over the whole lattice.

    With T = 15 the last block of either holds a single sample, whose time
    derivatives read the three samples of the one-sided stencil.
    """
    n_times = 15

    def run(block):
        monkeypatch.setattr(reconstruct, "TIME_BLOCK", block)
        ref, states, pose = rich_run(toy_params, n_times)
        roundtrip = pose_oracle.roundtrip_error(pose, states, ref)
        return pose, roundtrip, decay_observable(pose, states)[1]

    whole, whole_rt, whole_obs = run(n_times)
    for block in (2, 7):
        pose, rt, obs = run(block)
        for field in ("q", "R", "residual_rotation", "p", "residual_centerline"):
            assert np.array_equal(getattr(pose, field), getattr(whole, field)), (block, field)
        assert pose.norm_defect == whole.norm_defect
        assert pose.route_gap == whole.route_gap
        assert rt == whole_rt
        assert np.array_equal(obs, whole_obs)


def test_whole_lattice_functions_are_the_oracle(toy_params, monkeypatch):
    """The whole-lattice functions, run on the block kernels of the streamed
    pass, give the bits of the whole-lattice oracle at blocks of 2, 7 and T."""
    n_times = 15
    ref, states, _ = rich_run(toy_params, n_times)
    h_p = reference_centerline(ref)[-1]
    for block in (2, 7, n_times):
        monkeypatch.setattr(reconstruct, "TIME_BLOCK", block)
        pose = reconstruct_rotation(states, ref, ref.rotation[-1])
        whole = pose_oracle.reconstruct_rotation(states, ref, ref.rotation[-1])
        p0 = reconstruct._from_clamp(whole.R[0], states[0].values, h_p, ref.dx)[1]
        pose = reconstruct_centerline(states, pose, p0, h_p)
        whole = pose_oracle.reconstruct_centerline(states, whole, p0, h_p)
        for name in ("times", "q", "R", "norm_defect", "residual_rotation", "p",
                     "residual_centerline", "route_gap"):
            assert _bits(getattr(pose, name)) == _bits(getattr(whole, name)), (block, name)
        assert _bits(decay_observable(pose, states)) == _bits(
            pose_oracle.decay_observable(whole, states)
        )


def test_centerline_time_quadrature_is_the_whole_lattice_formula(toy_params, monkeypatch):
    """Blocks of 2, 7 and T samples give the bits, signed zeros included, of
    p0 + cumulative_trapezoid(R y1, dt) over the whole lattice."""
    n_times = 15
    for block in (2, 7, n_times):
        monkeypatch.setattr(reconstruct, "TIME_BLOCK", block)
        ref, states, pose = rich_run(toy_params, n_times)
        y1 = np.stack([s.values[:, 0:3] for s in states])
        vel = np.einsum("tnij,tnj->tni", pose.R, y1)
        p0 = reference_centerline(ref)
        expected = p0 + cumulative_trapezoid(vel, pose.times[1] - pose.times[0])
        assert pose.p.tobytes() == expected.tobytes(), block


def _allocated(call, returned) -> int:
    """Traced peak of ``call()`` above its start, less the bytes of what it returns."""
    call()  # imports and first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - returned(out)


def test_lattice_stages_allocate_less_than_the_history(toy_params, toy_matrices):
    """No stage stacks the whole history: what each allocates beyond what it
    returns stays below the byte size of the stacked states.  What the
    streamed pipeline allocates beyond what it returns does not grow with
    the number of time samples."""
    n_times = 8 * reconstruct.TIME_BLOCK + 1
    ref, states, pose = rich_run(toy_params, n_times)
    history = sum(s.values.nbytes for s in states)

    rotation = _allocated(
        lambda: reconstruct_rotation(states, ref, ref.rotation[-1]),
        lambda p: p.times.nbytes + p.q.nbytes + p.R.nbytes + p.residual_rotation.nbytes,
    )
    line = reference_centerline(ref)
    centerline = _allocated(
        lambda: reconstruct_centerline(states, pose, line, line[-1]),
        lambda p: p.p.nbytes + p.residual_centerline.nbytes,
    )
    observable = _allocated(
        lambda: decay_observable(pose, states), lambda out: out[0].nbytes + out[1].nbytes
    )
    assert max(rotation, centerline, observable) < history, (rotation, centerline, observable)

    def returned(out):
        traj, rec = out
        arrays = [value for value in vars(traj).values() if isinstance(value, np.ndarray)]
        arrays += [traj.final_state.values, rec.times, rec.residual_rotation,
                   rec.residual_centerline, rec.observable, rec.snapshots.times,
                   rec.snapshots.q, rec.snapshots.p]
        return sum(a.nbytes for a in arrays)

    n_cells = 64
    ref = curved_reference(toy_params, n_cells, np.array([1.0, 0.0, 0.5]), toy_matrices)
    datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=5, order=1)
    dt_max = 0.9 * ref.dx / np.abs(toy_matrices.wave_speeds).max()  # the step at cfl 0.9
    pipeline = {}
    for blocks in (8, 32):
        n_steps = blocks * reconstruct.TIME_BLOCK
        cfg = SimConfig(n_cells=n_cells, t_end=(n_steps - 0.5) * dt_max)
        pipeline[blocks] = _allocated(
            lambda: run_pipeline(cfg, toy_matrices, ref, datum), returned
        )
    block = reconstruct.TIME_BLOCK * len(ref.grid) * 12 * 8  # one block of states
    assert pipeline[32] - pipeline[8] < 3 * block, (pipeline, block)


def _random_pose(rng, ref, n_times):
    """A smooth random pose window: rotations from a quaternion field, any centerline."""
    times = np.linspace(0.0, 0.05 * n_times, n_times)
    t, x = np.meshgrid(times, ref.grid, indexing="ij")
    coeffs = rng.normal(size=(5, 4))
    q = (coeffs[0] + np.multiply.outer(t, coeffs[1]) + np.multiply.outer(x, coeffs[2])
         + np.multiply.outer(np.sin(2.0 * t + x), coeffs[3])
         + np.multiply.outer(t * x, coeffs[4]))
    p = np.stack([x, np.sin(t + x), np.cos(3.0 * t) * x], axis=-1) + rng.normal(size=3)

    class Pose:
        pass

    pose = Pose()
    pose.times, pose.R, pose.p = times, rotation_from_quaternion(q), p
    return pose


def _assert_matches_full_products(pose, ref):
    """The column-dot pose map against the full-product oracle.

    V and Gamma are formed by the same products and match bit for bit.  W
    and Upsilon take differences of column dot products where the oracle
    reads them from whole matmuls; each entry is within 1e-15 of the
    largest angular rate whose terms the products sum (|W|, and for
    Upsilon |Upsilon + curvature|, the rate of R^T dx R).
    """
    fast = model.strains_velocities_from_pose(pose, ref)
    full = pose_oracle.strains_velocities_from_pose(pose, ref)
    for linear in (slice(0, 3), slice(6, 9)):
        assert np.array_equal(fast[..., linear], full[..., linear])
    for block, offset in ((slice(3, 6), 0.0), (slice(9, 12), ref.curvature)):
        rate = np.linalg.norm(full[..., block] + offset, axis=-1).max()
        assert np.abs(fast[..., block] - full[..., block]).max() <= 1e-15 * rate


def test_pose_map_matches_full_products_on_random_windows(toy_params):
    rng = np.random.default_rng(21)
    for curvature in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [-3.0, 2.0, 0.7]):
        ref = curved_reference(toy_params, 24, np.array(curvature))
        for n_times in (3, 5, 41):
            _assert_matches_full_products(_random_pose(rng, ref, n_times), ref)


def test_pose_map_matches_full_products_on_simulated_windows(toy_params, toy_matrices):
    ref = curved_reference(toy_params, 32, np.array([1.0, 0.0, 0.5]), toy_matrices)
    datum = generate_initial_datum(toy_matrices, ref, 1e-2, seed=5, order=1)
    cfg = SimConfig(n_cells=32, cfl=0.9, t_end=0.5, output_stride=1)
    _, _, whole = pose_oracle.run_pipeline(cfg, toy_matrices, ref, datum)
    for lo, hi in ((0, 3), (0, 41), (20, 61), (len(whole.times) - 41, len(whole.times))):
        window = replace(whole, times=whole.times[: hi - lo], R=whole.R[lo:hi], p=whole.p[lo:hi])
        _assert_matches_full_products(window, ref)


def test_pose_map_and_oracle_flag_the_same_rotations(toy_params):
    """Both raise NotARotation exactly when the orthogonality defect passes 1e-6."""
    rng = np.random.default_rng(22)
    ref = curved_reference(toy_params, 16, np.array([1.0, 0.0, 0.5]))
    pose = _random_pose(rng, ref, 5)
    rotations = pose.R
    for defect in (0.5e-6, 0.99e-6, 1.01e-6, 2e-6):
        # (1 + e) R has R^T R - I = (2e + e^2) I
        pose.R = rotations.copy()
        pose.R[2, 7] *= np.sqrt(1.0 + defect)
        outcomes = []
        for fn in (model.strains_velocities_from_pose, pose_oracle.strains_velocities_from_pose):
            try:
                fn(pose, ref)
                outcomes.append(False)
            except NotARotation:
                outcomes.append(True)
        assert outcomes == [defect > 1e-6] * 2, defect
