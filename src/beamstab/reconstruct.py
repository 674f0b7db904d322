"""Displacement/rotation recovery from simulated intrinsic variables.

A solved intrinsic history y(x, t) determines the pose (p, R) of the beam
once the clamped-end values are fixed.  The rotation field solves the
overdetermined pair

    dt R = R hat(y2),      dx R = R hat(y4 + curvature),    R(L, 0) given,

which is integrated through its quaternion form dt q = U(y2) q,
dx q = U(y4 + curvature) q with U(v) = 0.5 [[0, -v^T], [v, hat(v)]].
Following the constructive uniqueness argument, the x-equation is solved
once along t = 0 (RK4 on a cubic-spline interpolant of the generator,
renormalizing each step) and the t-equation is then enforced at every
node with an exact-exponential midpoint stepper; the x-equation away from
t = 0 is *audited* by differencing the computed field, and that residual
is the reported rotation defect.

The centerline follows by time quadrature of R y1 from its initial shape;
the alternative space quadrature of R (y3 + e1) from the clamped end gives
an independent route whose gap is reported.  Both residuals inherit the
truncation level of the simulated field, so they shrink at first order
under simultaneous grid/step refinement - the lattice surrogate for the
C^1 regularity statement that cannot be checked discretely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model, solver
from .errors import EndpointMismatch, NotARotation, ValidationError, ZeroQuaternion
from .fd import cumulative_trapezoid, diff1
from .model import E1, PrecurvedReference, StateField, hat
from .params import BeamMatrices
from .table import csv_table

__all__ = [
    "PoseField",
    "umap",
    "rotation_from_quaternion",
    "quaternion_from_rotation",
    "reconstruct_rotation",
    "reconstruct_centerline",
    "run_pipeline",
    "roundtrip_error",
    "decay_observable",
    "pose_snapshot_to_csv",
    "pose_residuals_to_csv",
]

# keeps the reconstruction lattice bounded; the stride stays deterministic
MAX_RECONSTRUCT_RECORDS = 1200


@dataclass(frozen=True)
class PoseField:
    """Quaternion, rotation and centerline fields on the space-time lattice."""

    grid: np.ndarray                  # (N+1,)
    times: np.ndarray                 # (T,)
    q: np.ndarray                     # (T, N+1, 4)
    R: np.ndarray                     # (T, N+1, 3, 3)
    p: np.ndarray | None = None       # (T, N+1, 3)
    norm_defect: float = 0.0          # max | |q| - 1 |
    residual_rotation: np.ndarray | None = None    # (T,) audited x-equation
    residual_centerline: np.ndarray | None = None  # (T,) mixed-derivative defect
    route_gap: float | None = None    # sup |p - p_from_x_quadrature|


def umap(v: np.ndarray) -> np.ndarray:
    """Skew 4x4 generator of quaternion kinematics for angular rate v."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4, 4))
    out[..., 0, 1:] = -v
    out[..., 1:, 0] = v
    out[..., 1:, 1:] = hat(v)
    return 0.5 * out


def rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (scalar first), renormalized internally."""
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q, axis=-1)
    if np.any(norm < 1e-12):
        raise ZeroQuaternion("quaternion norm is numerically zero")
    q = q / norm[..., None]
    w = q[..., 0]
    v = q[..., 1:]
    vv = np.einsum("...i,...j->...ij", v, v)
    eye = np.eye(3)
    return (
        (w**2 - np.einsum("...i,...i->...", v, v))[..., None, None] * eye
        + 2.0 * vv
        + 2.0 * w[..., None, None] * hat(v)
    )


def quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Quaternion of a rotation matrix, largest-pivot branch, q0 >= 0.

    Ties at q0 = 0 (half-turn rotations) are broken by making the first
    nonzero vector component positive, so the output is deterministic.
    Raises :class:`NotARotation` unless ``r`` is a 3x3 rotation to 1e-8.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise NotARotation(f"expected a 3x3 rotation matrix, got shape {r.shape}")
    defect = np.abs(r.T @ r - np.eye(3)).max()
    det_defect = abs(np.linalg.det(r) - 1.0)
    if defect > 1e-8 or det_defect > 1e-8:
        raise NotARotation(
            f"orthogonality defect {defect:.3g}, determinant defect {det_defect:.3g}"
        )
    t = np.trace(r)
    d = np.diagonal(r)
    pivots = np.array([1.0 + t, 1.0 + 2.0 * d[0] - t, 1.0 + 2.0 * d[1] - t, 1.0 + 2.0 * d[2] - t])
    k = int(np.argmax(pivots))
    s = 2.0 * np.sqrt(max(pivots[k], 0.0))
    if k == 0:
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif k == 1:
        q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif k == 2:
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:
        for comp in q[1:]:
            if comp != 0.0:
                if comp < 0.0:
                    q = -q
                break
    return q


def _exp_step(q: np.ndarray, omega: np.ndarray, h: float) -> np.ndarray:
    """Exact step of dq/dz = U(omega) q for constant omega over width h.

    Uses U(omega)^2 = -|omega/2|^2 I, so the matrix exponential closes:
    exp(h U) = cos(h|w|/2) I + (2/|w|) sin(h|w|/2) U(omega).
    """
    omega = np.asarray(omega, dtype=float)
    mag = np.linalg.norm(omega, axis=-1)
    half = 0.5 * h * mag
    # sin(half)/|omega| = (h/2) sinc(half/pi), finite as |omega| -> 0
    sin_term = 0.5 * h * np.sinc(half / np.pi)
    rotated = np.einsum("...ij,...j->...i", umap(omega), q)
    return np.cos(half)[..., None] * q + 2.0 * sin_term[..., None] * rotated


def reconstruct_rotation(
    states: list[StateField],
    reference: PrecurvedReference,
    r_in: np.ndarray,
) -> PoseField:
    """Rotation history from intrinsic states, seeded at the clamped end at t = 0.

    ``states`` are physical-representation samples on a uniform time lattice.
    The x-sweep at t = 0 runs from x = L leftward (RK4 with per-step
    renormalization on a cubic-spline interpolant of y4 + curvature); each
    node is then advanced in time by the exact-exponential midpoint rule on
    U(y2).  The unenforced x-equation is differenced on the computed field
    and reported per time sample in ``residual_rotation``.  ``r_in`` is
    the rotation matrix R(L, 0); the t-sweeps renormalize every step too.
    """
    from scipy.interpolate import CubicSpline

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

    y = np.stack([s.values for s in states])  # (T, N+1, 12)

    # x-sweep at t = 0, from the clamped end leftward
    gen0 = reference.curvature + y[0, :, 9:12]
    spline = CubicSpline(grid, gen0, axis=0)
    q0 = np.empty((n_nodes, 4))
    q0[-1] = quaternion_from_rotation(r_in)
    h = -dx
    for j in range(n_nodes - 1, 0, -1):
        x = grid[j]
        qj = q0[j]
        u_mid = umap(spline(x + 0.5 * h))
        k1 = umap(spline(x)) @ qj
        k2 = u_mid @ (qj + 0.5 * h * k1)
        k3 = u_mid @ (qj + 0.5 * h * k2)
        k4 = umap(spline(x + h)) @ (qj + h * k3)
        nxt = qj + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        q0[j - 1] = nxt / np.linalg.norm(nxt)

    # t-sweeps, all nodes at once
    q = np.empty((n_times, n_nodes, 4))
    q[0] = q0
    for k in range(n_times - 1):
        omega_mid = 0.5 * (y[k, :, 3:6] + y[k + 1, :, 3:6])
        stepped = _exp_step(q[k], omega_mid, dt)
        q[k + 1] = stepped / np.linalg.norm(stepped, axis=-1, keepdims=True)

    norm_defect = float(np.abs(np.linalg.norm(q, axis=-1) - 1.0).max())
    rot = rotation_from_quaternion(q)

    # audit the x-equation on the full lattice
    dq_dx = diff1(q, dx, axis=1)
    gen = reference.curvature[None, :, :] + y[:, :, 9:12]
    predicted = np.einsum("tnij,tnj->tni", umap(gen), q)
    residual = np.linalg.norm(dq_dx - predicted, axis=-1).max(axis=1)

    return PoseField(
        grid=grid,
        times=times,
        q=q,
        R=rot,
        norm_defect=norm_defect,
        residual_rotation=residual,
    )


def _from_clamp(rot: np.ndarray, y: np.ndarray, h_p: np.ndarray, dx: float):
    """Tangent R (y3 + e1) and positions h_p - int_x^L R (y3 + e1).

    ``rot`` is (..., N+1, 3, 3) and ``y`` (..., N+1, 12); the integral is
    the trapezoid rule summed from the clamped end.  Both outputs are
    (..., N+1, 3).
    """
    tangent = np.einsum("...nij,...nj->...ni", rot, y[..., 6:9] + E1)
    tail = cumulative_trapezoid(tangent[..., ::-1, :], dx, axis=-2)[..., ::-1, :]
    return tangent, h_p - tail


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

    y = np.stack([s.values for s in states])
    dt = pose.times[1] - pose.times[0]
    dx = pose.grid[1] - pose.grid[0]

    vel = np.einsum("tnij,tnj->tni", pose.R, y[:, :, 0:3])  # R y1
    p = p0 + cumulative_trapezoid(vel, dt)

    tangent, p2 = _from_clamp(pose.R, y, h_p, dx)
    route_gap = float(np.abs(p - p2).max())

    mixed = diff1(vel, dx, axis=1) - diff1(tangent, dt, axis=0)
    residual = np.abs(mixed).max(axis=(1, 2))

    return replace(pose, p=p, residual_centerline=residual, route_gap=route_gap)


def run_pipeline(
    config: solver.SimConfig,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    datum: StateField,
    cert=None,
):
    """Simulate with stored records, then rebuild the pose from the clamped end.

    The stride ``config.output_stride`` is raised when needed to keep at
    most ``MAX_RECONSTRUCT_RECORDS`` records after t = 0.  A ragged final
    record is dropped (the quaternion sweeps need a uniform time lattice),
    and the initial shape is the quadrature from the clamp.  Returns
    (trajectory without snapshots, physical states, pose); raises
    :class:`ValidationError` when fewer than three evenly spaced records
    would remain.
    """
    _, n_steps = solver.time_step(config, matrices)
    stride = max(config.output_stride, math.ceil(n_steps / MAX_RECONSTRUCT_RECORDS))
    if n_steps // stride < 2:
        raise ValidationError(
            [f"reconstruction needs at least 3 evenly spaced records, the run gives "
             f"{n_steps // stride + 1}: raise sim.t_end or lower sim.output_stride"]
        )
    config = replace(config, store_snapshots=True, output_stride=stride)
    traj = solver.simulate(config, matrices, reference, datum, cert=cert, lyap_order=1)

    states = [model.to_physical(s, matrices) for s in traj.snapshots[: n_steps // stride + 1]]
    traj = replace(traj, snapshots=[])  # the states are the one copy of the history
    pose = reconstruct_rotation(states, reference, reference.rotation[-1])
    h_p = model.reference_centerline(reference)[-1]
    _, p0 = _from_clamp(pose.R[0], states[0].values, h_p, reference.dx)
    pose = reconstruct_centerline(states, pose, p0, h_p)
    return traj, states, pose


def roundtrip_error(pose: PoseField, states, reference: PrecurvedReference) -> float:
    """Sup |y - y_back| over the lattice, y_back the intrinsic variables of ``pose``."""
    back = model.strains_velocities_from_pose(pose, reference)
    return max(float(np.abs(b.values - s.values).max()) for b, s in zip(back, states))


def decay_observable(pose: PoseField, states: list[StateField]) -> tuple[np.ndarray, np.ndarray]:
    """Per-time sup of |R y1| + ||R hat(y2)|| + |y3| + |y4| (the pose decay witness).

    R is a rotation, so it is an isometry: |R y1| = |y1| and
    ||R hat(y2)||_2 = ||hat(y2)||_2 = |y2|.  The witness is therefore the
    sup over x of the four block norms of y; ``pose`` supplies the times.
    R's orthogonality is reported in ``pose.norm_defect`` and audited by
    :func:`model.strains_velocities_from_pose`.
    """
    y = np.stack([s.values for s in states])
    blocks = np.linalg.norm(y.reshape(y.shape[:2] + (4, 3)), axis=-1)
    return pose.times.copy(), blocks.sum(axis=-1).max(axis=1)


def pose_snapshot_to_csv(pose: PoseField, index: int) -> str:
    """One time sample of a full pose: x, centerline, quaternion."""
    rows = np.column_stack([pose.grid, pose.p[index], pose.q[index]]).tolist()
    return f"# t = {pose.times[index]:.17g}\n" + csv_table(
        ["x", "p1", "p2", "p3", "q0", "q1", "q2", "q3"], rows
    )


def pose_residuals_to_csv(pose: PoseField) -> str:
    """Residual summary of a full pose over time: rotation audit, centerline compatibility."""
    out = f"# norm_defect = {pose.norm_defect:.17g}\n# route_gap = {pose.route_gap:.17g}\n"
    rows = np.column_stack([pose.times, pose.residual_rotation, pose.residual_centerline]).tolist()
    return out + csv_table(["t", "residual_rotation", "residual_centerline"], rows)
