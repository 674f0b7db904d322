"""The whole-lattice pose pipeline, kept as the oracle of the streamed one,
and the full-product map from a pose back to intrinsic variables with
its ``vec``.

This is the reconstruction as it ran before ``run_pipeline`` became one
pass over the records: the simulation stores every record, the physical
states are the one copy of the history, and each stage reads whole-lattice
arrays of q, R, p and R y1 block by block.  The x-sweep at t = 0 runs on
scipy's ``CubicSpline``, which the library's own spline replaces.  The
library's streamed pass and its whole-lattice functions must give these
bits.
"""

import math
from dataclasses import replace

import numpy as np

from beamstab import model, solver
from beamstab.errors import EndpointMismatch, NotARotation, ValidationError
from beamstab.fd import diff1
from beamstab.model import E1, PrecurvedReference, StateField
from beamstab.params import BeamMatrices
from beamstab.reconstruct import (
    MAX_RECONSTRUCT_POINTS,
    MAX_RECONSTRUCT_RECORDS,
    PoseField,
    _blocks,
    _exp_step,
    _from_clamp,
    _halo,
    _stack,
    quaternion_from_rotation,
    rotation_from_quaternion,
    umap,
)


def vec(m: np.ndarray) -> np.ndarray:
    """Axial vector of the skew part of a 3x3 matrix (inverse of hat)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * np.stack(
        [
            m[..., 2, 1] - m[..., 1, 2],
            m[..., 0, 2] - m[..., 2, 0],
            m[..., 1, 0] - m[..., 0, 1],
        ],
        axis=-1,
    )


def strains_velocities_from_pose(pose, reference: PrecurvedReference) -> np.ndarray:
    """Intrinsic variables of a sampled pose history, from full 3x3 products.

    The definition ``model.strains_velocities_from_pose`` replaces: R^T R,
    R^T dt R and R^T dx R are formed as whole batched matmuls, and ``vec``
    reads three of the nine entries of each derivative product.
    """
    times = np.asarray(pose.times, dtype=float)
    rot = np.asarray(pose.R, dtype=float)
    pos = np.asarray(pose.p, dtype=float)
    dx = reference.grid[1] - reference.grid[0]
    dt = times[1] - times[0]
    rt = np.swapaxes(rot, -1, -2)

    defect = np.abs(rt @ rot - np.eye(3)).max()
    if defect > 1e-6:
        raise NotARotation(f"rotation samples have orthogonality defect {defect:.3g}")

    dp_dt = diff1(pos, dt, axis=0)
    dp_dx = diff1(pos, dx, axis=1)
    dr_dt = diff1(rot, dt, axis=0)
    dr_dx = diff1(rot, dx, axis=1)

    v_lin = np.einsum("tnji,tnj->tni", rot, dp_dt)
    w_ang = vec(rt @ dr_dt)
    gamma = np.einsum("tnji,tnj->tni", rot, dp_dx) - E1
    upsilon = vec(rt @ dr_dx) - reference.curvature
    return np.concatenate([v_lin, w_ang, gamma, upsilon], axis=-1)


def sweep_x(values: np.ndarray, reference: PrecurvedReference, r_in: np.ndarray) -> np.ndarray:
    """Quaternion field (N+1, 4) at t = 0, swept from the clamped end leftward.

    RK4 with per-step renormalization on scipy's not-a-knot
    ``CubicSpline`` of y4 + curvature, evaluated at each stage point as the
    sweep reaches it; ``values`` are the (N+1, 12) physical values.
    """
    from scipy.interpolate import CubicSpline

    grid = reference.grid
    spline = CubicSpline(grid, reference.curvature + values[:, 9:12], axis=0)
    q0 = np.empty((len(grid), 4))
    q0[-1] = quaternion_from_rotation(r_in)
    h = -reference.dx
    for j in range(len(grid) - 1, 0, -1):
        x = grid[j]
        qj = q0[j]
        u_mid = umap(spline(x + 0.5 * h))
        k1 = umap(spline(x)) @ qj
        k2 = u_mid @ (qj + 0.5 * h * k1)
        k3 = u_mid @ (qj + 0.5 * h * k2)
        k4 = umap(spline(x + h)) @ (qj + h * k3)
        nxt = qj + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        q0[j - 1] = nxt / np.linalg.norm(nxt)
    return q0


def reconstruct_rotation(
    states: list[StateField],
    reference: PrecurvedReference,
    r_in: np.ndarray,
) -> PoseField:
    """Rotation history from intrinsic states, seeded at the clamped end at t = 0.

    ``states`` are physical-representation samples on a uniform time lattice.
    The x-sweep at t = 0 runs from x = L leftward (:func:`sweep_x`); each
    node is then advanced in time by the exact-exponential midpoint rule on
    U(y2).  The unenforced x-equation is differenced on the computed field
    and reported per time sample in ``residual_rotation``.  ``r_in`` is
    the rotation matrix R(L, 0); the t-sweeps renormalize every step too.
    """
    grid = reference.grid
    times = np.array([s.time for s in states])
    n_nodes = len(grid)
    n_times = len(times)
    if n_times < 3 or np.abs(np.diff(times) - (times[1] - times[0])).max() > 1e-10 * max(
        times[-1], 1.0
    ):
        raise ValueError("states must be sampled on a uniform time lattice (>= 3 samples)")
    dt = times[1] - times[0]
    dx = reference.dx

    # t-sweeps, all nodes at once
    q = np.empty((n_times, n_nodes, 4))
    q[0] = sweep_x(states[0].values, reference, r_in)
    for k in range(n_times - 1):
        omega_mid = 0.5 * (states[k].values[:, 3:6] + states[k + 1].values[:, 3:6])
        stepped = _exp_step(q[k], omega_mid, dt)
        q[k + 1] = stepped / np.linalg.norm(stepped, axis=-1, keepdims=True)

    # rotations, and the audit of the x-equation, block by block
    rot = np.empty((n_times, n_nodes, 3, 3))
    residual = np.empty(n_times)
    norm_defect = np.empty(n_times)
    for lo, hi in _blocks(n_times):
        qb = q[lo:hi]
        norm_defect[lo:hi] = np.abs(np.linalg.norm(qb, axis=-1) - 1.0).max(axis=1)
        rot[lo:hi] = rotation_from_quaternion(qb)
        dq_dx = diff1(qb, dx, axis=1)
        gen = reference.curvature + _stack(states, lo, hi)[..., 9:12]
        predicted = np.einsum("tnij,tnj->tni", umap(gen), qb)
        residual[lo:hi] = np.linalg.norm(dq_dx - predicted, axis=-1).max(axis=1)

    return PoseField(
        grid=grid,
        times=times,
        q=q,
        R=rot,
        norm_defect=float(norm_defect.max()),
        residual_rotation=residual,
    )


def reconstruct_centerline(
    states: list[StateField],
    pose: PoseField,
    p0: np.ndarray,
    h_p: np.ndarray,
) -> PoseField:
    """Centerline by time quadrature of R y1 from the initial shape p0.

    The clamped position ``h_p`` anchors the independent space-quadrature
    route p2(x, t) = h_p - int_x^L R (y3 + e1); the sup gap between the two
    routes and the mixed-derivative compatibility residual
    dx(R y1) - dt(R (y3 + e1)) are stored alongside.
    """
    p0 = np.asarray(p0, dtype=float)
    h_p = np.asarray(h_p, dtype=float)
    if np.abs(p0[-1] - h_p).max() > 1e-10:
        raise EndpointMismatch(f"p0(L) differs from clamp by {np.abs(p0[-1] - h_p).max():.3g}")

    n_times = len(pose.times)
    dt = pose.times[1] - pose.times[0]
    dx = pose.grid[1] - pose.grid[0]

    # p = p0 + cumulative_trapezoid(vel, dt), with the running integral
    # summed in place: each block's cumsum starts from the sum before it
    # (none before the first step), so the additions keep their order
    vel = np.empty(pose.R.shape[:-1])  # R y1
    p = np.zeros_like(vel)
    for lo, hi in _blocks(n_times):
        vel[lo:hi] = np.einsum("tnij,tnj->tni", pose.R[lo:hi], _stack(states, lo, hi)[..., 0:3])
        k = max(lo, 1)
        p[k:hi] = 0.5 * dt * (vel[k:hi] + vel[k - 1 : hi - 1])
        np.cumsum(p[max(lo - 1, 1) : hi], axis=0, out=p[max(lo - 1, 1) : hi])
    p += p0

    gap = np.empty(n_times)
    residual = np.empty(n_times)
    for lo, hi in _blocks(n_times):
        wlo, whi = _halo(lo, hi, n_times)
        tangent, p2 = _from_clamp(pose.R[wlo:whi], _stack(states, wlo, whi), h_p, dx)
        own = slice(lo - wlo, hi - wlo)
        gap[lo:hi] = np.abs(p[lo:hi] - p2[own]).max(axis=(1, 2))
        mixed = diff1(vel[lo:hi], dx, axis=1) - diff1(tangent, dt, axis=0)[own]
        residual[lo:hi] = np.abs(mixed).max(axis=(1, 2))

    return replace(pose, p=p, residual_centerline=residual, route_gap=float(gap.max()))


def run_pipeline(
    config: solver.SimConfig,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    datum: StateField,
    cert=None,
):
    """Simulate with stored records, then rebuild the pose from the clamped end.

    The stride ``config.output_stride`` is raised when needed to keep at
    most ``MAX_RECONSTRUCT_RECORDS`` records after t = 0, and at most
    ``MAX_RECONSTRUCT_POINTS`` lattice points in all.  A ragged final
    record is dropped (the quaternion sweeps need a uniform time lattice),
    and the initial shape is the quadrature from the clamp.  Returns
    (trajectory without snapshots, physical states, pose); raises
    :class:`ValidationError` when fewer than three evenly spaced records
    would remain.
    """
    _, n_steps = solver.time_step(config, matrices, reference)
    max_records = min(
        MAX_RECONSTRUCT_RECORDS, MAX_RECONSTRUCT_POINTS // (config.n_cells + 1) - 1
    )
    stride = max(config.output_stride, math.ceil(n_steps / max_records))
    if n_steps // stride < 2:
        raise ValidationError(
            [f"reconstruction needs at least 3 evenly spaced records, the run gives "
             f"{n_steps // stride + 1}: raise sim.t_end or lower sim.output_stride"]
        )
    config = replace(config, store_snapshots=True, output_stride=stride)
    traj = solver.simulate(config, matrices, reference, datum, cert=cert, lyap_order=1)

    # the states are the one copy of the history: each diagonal snapshot is
    # dropped as its physical state replaces it
    states = traj.snapshots[: n_steps // stride + 1]
    traj = replace(traj, snapshots=[])
    for i, snapshot in enumerate(states):
        states[i] = model.to_physical(snapshot, matrices)
    pose = reconstruct_rotation(states, reference, reference.rotation[-1])
    h_p = model.reference_centerline(reference)[-1]
    _, p0 = _from_clamp(pose.R[0], states[0].values, h_p, reference.dx)
    pose = reconstruct_centerline(states, pose, p0, h_p)
    return traj, states, pose


def roundtrip_error(pose: PoseField, states, reference: PrecurvedReference) -> float:
    """Sup |y - y_back| over the lattice, y_back the intrinsic variables of ``pose``.

    ``pose`` is differentiated one window of time samples at a time.  Each
    window is given the lattice's first sample times, so its step is the
    lattice's own ``times[1] - times[0]`` to the bit (the first difference
    inside a window can differ from it in the last place); only the values
    are read back.
    """
    n_times = len(pose.times)
    errors = []
    for lo, hi in _blocks(n_times):
        wlo, whi = _halo(lo, hi, n_times)
        window = replace(pose, times=pose.times[: whi - wlo], R=pose.R[wlo:whi], p=pose.p[wlo:whi])
        back = model.strains_velocities_from_pose(window, reference)[lo - wlo : hi - wlo]
        errors.append(float(np.abs(back - _stack(states, lo, hi)).max()))
    return max(errors)


def decay_observable(pose: PoseField, states: list[StateField]) -> tuple[np.ndarray, np.ndarray]:
    """Per-time sup of |R y1| + ||R hat(y2)|| + |y3| + |y4| (the pose decay witness).

    R is a rotation, so it is an isometry: |R y1| = |y1| and
    ||R hat(y2)||_2 = ||hat(y2)||_2 = |y2|.  The witness is therefore the
    sup over x of the four block norms of y; ``pose`` supplies the times.
    R's orthogonality is reported in ``pose.norm_defect`` and audited by
    :func:`model.strains_velocities_from_pose`.
    """
    values = np.empty(len(pose.times))
    for lo, hi in _blocks(len(pose.times)):
        y = _stack(states, lo, hi)
        norms = np.linalg.norm(y.reshape(y.shape[:2] + (4, 3)), axis=-1)
        values[lo:hi] = norms.sum(axis=-1).max(axis=1)
    return pose.times.copy(), values
