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

``reconstruct`` runs all of this in one pass over the records of its
simulation (:func:`run_pipeline`): each record's physical state, which
the solver formed for its step, is swept in time as the solver hands it
on, and the stages over the space-time lattice (the rotations and the
x-equation audit, R y1 and the centerline residuals, the round trip and
the decay observable) run on blocks of ``TIME_BLOCK`` time samples as
the blocks complete.  A time derivative on a block reads one sample of
halo on each side, widened at the lattice's end to the three samples of
the one-sided stencil, so a block's audits wait for the block after it:
the pass keeps a window of ``2 TIME_BLOCK + 1`` rows and audits one block
behind.  The time quadrature of the centerline carries its running sum
from block to block.  Every row sees
the arithmetic of a single block, so the results do not depend on the
block size, and the whole-lattice functions below run the same blocks.
What the pass keeps is what ``reconstruct`` writes: the per-time
residuals and observable, and the pose at ``MAX_POSE_SNAPSHOTS`` times.
So its memory grows with the grid, not with the records.

On Linux ``reconstruct`` is two processes that run at once
(:func:`.forked.simulate`).  A child forked after the pass is set up
simulates: it holds the solver's state and the recorded series, and
writes each record to a pipe.  The command's process runs the pass on the
records as they arrive: it holds the pass's window and what the pass
keeps.  So the command's peak no longer includes the simulation: on the
helical preset with 1139 records the command's process peaks at 48 MB
resident at N = 256 and at 76 MB at N = 1024, and its child at about
28 and 30 MB.  Elsewhere the simulation runs in the command's process
and hands each record to the pass in turn.
"""

from __future__ import annotations

import math
import os
import sys
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
    "Reconstruction",
    "umap",
    "rotation_from_quaternion",
    "quaternion_from_rotation",
    "reconstruct_rotation",
    "reconstruct_centerline",
    "run_pipeline",
    "decay_observable",
    "pose_snapshot_to_csv",
    "pose_residuals_to_csv",
]

# keep the reconstruction lattice bounded; the stride stays deterministic.
# The streamed pass holds no lattice: its memory is about 37 kB per grid
# node whatever the number of records (helical: 48 MB resident at N = 256,
# 194 MB at N = 4096), so these bound run time more than memory now.
MAX_RECONSTRUCT_RECORDS = 1200
MAX_RECONSTRUCT_POINTS = 2**22

# time samples per block of the lattice stages; results do not depend on it.
# At least 2, so that the first block holds the first time step and each
# block's halo ends on the next block's first row (see ``_Pass``).
TIME_BLOCK = 32

# pose snapshots written by ``reconstruct``, evenly spread over the lattice
MAX_POSE_SNAPSHOTS = 24

# simulate in a forked child while this process runs the pass (see
# ``forked.py``); elsewhere the two run in turn here.  The bits do not depend on it.
_FORK = sys.platform == "linux" and hasattr(os, "fork")


@dataclass(frozen=True)
class PoseField:
    """Quaternion, rotation and centerline fields on the space-time lattice, or some of its times."""

    grid: np.ndarray                  # (N+1,)
    times: np.ndarray                 # (T,)
    q: np.ndarray | None = None       # (T, N+1, 4)
    R: np.ndarray | None = None       # (T, N+1, 3, 3)
    p: np.ndarray | None = None       # (T, N+1, 3)
    velocity: np.ndarray | None = None  # (T, N+1, 3) R y1, the time derivative of p
    norm_defect: float = 0.0          # max | |q| - 1 |
    residual_rotation: np.ndarray | None = None    # (T,) audited x-equation
    residual_centerline: np.ndarray | None = None  # (T,) mixed-derivative defect
    route_gap: float | None = None    # sup |p - p_from_x_quadrature|


@dataclass(frozen=True)
class Reconstruction:
    """What ``reconstruct`` writes of a pose lattice, as one streamed pass keeps it."""

    times: np.ndarray                 # (T,)
    norm_defect: float                # max | |q| - 1 |
    residual_rotation: np.ndarray     # (T,) audited x-equation
    residual_centerline: np.ndarray   # (T,) mixed-derivative defect
    route_gap: float                  # sup |p - p_from_x_quadrature|
    roundtrip_error: float            # sup |y - y_back| over the lattice
    observable: np.ndarray            # (T,) the decay witness of decay_observable
    indices: list[int]                # lattice rows of the snapshots
    snapshots: PoseField              # times, q and p on those rows


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


def _blocks(n_times: int):
    """Bounds (lo, hi) of consecutive blocks of ``TIME_BLOCK`` time samples."""
    assert TIME_BLOCK >= 2
    for lo in range(0, n_times, TIME_BLOCK):
        yield lo, min(lo + TIME_BLOCK, n_times)


def _halo(lo: int, hi: int, n_times: int) -> tuple[int, int]:
    """Rows a time derivative on rows lo:hi reads with the stencils of ``diff1``.

    One sample on each side, and at the lattice's end the three samples of
    the one-sided stencil (at its start a block of ``TIME_BLOCK >= 2``
    samples and its halo already hold them).  So the halo of a block ends
    on the next block's first row, and the last block's on its own last.
    """
    return max(0, min(lo - 1, n_times - 3)), min(n_times, hi + 1)


def _stack(states: list[StateField], lo: int, hi: int, cols: slice = slice(None)) -> np.ndarray:
    """Columns ``cols`` of the values of ``states[lo:hi]`` as one (hi - lo, N+1, ...) array."""
    return np.stack([s.values[:, cols] for s in states[lo:hi]])


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


def _sweep_x(values: np.ndarray, reference: PrecurvedReference, r_in: np.ndarray) -> np.ndarray:
    """Quaternion field (N+1, 4) at t = 0, swept from the clamped end: :func:`.xsweep.sweep_x`."""
    from .xsweep import sweep_x  # here: the commands without a sweep never compile it

    return sweep_x(values, reference, r_in)


def _sweep_t(q: np.ndarray, before: np.ndarray, after: np.ndarray, dt: float) -> np.ndarray:
    """Quaternion field one time step on: the exact-exponential midpoint rule on U(y2), renormalized.

    ``before`` and ``after`` are the (N+1, 12) physical values at either end of the step.
    """
    omega_mid = 0.5 * (before[:, 3:6] + after[:, 3:6])
    stepped = _exp_step(q, omega_mid, dt)
    return stepped / np.linalg.norm(stepped, axis=-1, keepdims=True)


def reconstruct_rotation(
    states: list[StateField],
    reference: PrecurvedReference,
    r_in: np.ndarray,
    *,
    q: np.ndarray | None = None,
) -> PoseField:
    """Rotation history from intrinsic states, seeded at the clamped end at t = 0.

    ``states`` are physical-representation samples on a uniform time lattice.
    The x-sweep at t = 0 runs from x = L leftward (RK4 with per-step
    renormalization on a cubic-spline interpolant of y4 + curvature); each
    node is then advanced in time by the exact-exponential midpoint rule on
    U(y2).  The unenforced x-equation is differenced on the computed field
    and reported per time sample in ``residual_rotation``.  ``r_in`` is
    the rotation matrix R(L, 0); the t-sweeps renormalize every step too.

    ``q``, when given, is the quaternion field on ``states`` already swept,
    as the streamed pass of :func:`run_pipeline` sweeps each record when it
    arrives; only the rotations and the audit are then computed, and
    ``r_in`` is not read.
    """
    times = np.array([s.time for s in states])
    n_times = len(times)
    if q is None:
        if n_times < 3 or np.abs(np.diff(times) - (times[1] - times[0])).max() > 1e-10 * max(
            times[-1], 1.0
        ):
            raise ValueError("states must be sampled on a uniform time lattice (>= 3 samples)")
        dt = times[1] - times[0]
        q = np.empty((n_times, len(reference.grid), 4))
        q[0] = _sweep_x(states[0].values, reference, r_in)
        for k in range(n_times - 1):
            q[k + 1] = _sweep_t(q[k], states[k].values, states[k + 1].values, dt)

    # rotations, and the audit of the x-equation, block by block
    rot = np.empty(q.shape[:-1] + (3, 3))
    residual = np.empty(n_times)
    norm_defect = np.empty(n_times)
    for lo, hi in _blocks(n_times):
        qb = q[lo:hi]
        norm_defect[lo:hi] = np.abs(np.linalg.norm(qb, axis=-1) - 1.0).max(axis=1)
        rot[lo:hi] = rotation_from_quaternion(qb)
        dq_dx = diff1(qb, reference.dx, axis=1)
        gen = reference.curvature + _stack(states, lo, hi, slice(9, 12))
        predicted = np.einsum("tnij,tnj->tni", umap(gen), qb)
        residual[lo:hi] = np.linalg.norm(dq_dx - predicted, axis=-1).max(axis=1)

    return PoseField(
        grid=reference.grid,
        times=times,
        q=q,
        R=rot,
        norm_defect=float(norm_defect.max()),
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


def _velocity(rot: np.ndarray, states: list[StateField]) -> np.ndarray:
    """R y1, the centerline's time derivative, on a block of time samples."""
    return np.einsum("tnij,tnj->tni", rot, _stack(states, 0, len(states), slice(0, 3)))


def _time_sums(vel: np.ndarray, carry, dt: float):
    """Running trapezoid sums int_0^t R y1 on one block of time samples.

    ``carry`` is None on the lattice's first block, whose sums are those of
    :func:`.fd.cumulative_trapezoid`; otherwise it is the (velocity, sum)
    of the sample before the block.  Each later block's cumsum starts from
    the sum before it, so the additions and their order are those of one
    cumsum over the whole lattice, signed zeros included.  Returns the
    block's sums and the carry of the next block.
    """
    if carry is None:
        sums = cumulative_trapezoid(vel, dt)
    else:
        last_vel, last_sum = carry
        steps = 0.5 * dt * (vel + np.concatenate([last_vel[None], vel[:-1]]))
        sums = np.cumsum(np.concatenate([last_sum[None], steps]), axis=0)[1:]
    return sums, (vel[-1], sums[-1])


def reconstruct_centerline(
    states: list[StateField],
    pose: PoseField,
    p0: np.ndarray,
    h_p: np.ndarray,
    *,
    own: slice | None = None,
) -> PoseField:
    """Centerline by time quadrature of R y1 from the initial shape p0.

    The clamped position ``h_p`` anchors the independent space-quadrature
    route p2(x, t) = h_p - int_x^L R (y3 + e1); the sup gap between the two
    routes and the mixed-derivative compatibility residual
    dx(R y1) - dt(R (y3 + e1)) are stored alongside.

    The audits run one block at a time on its halo window (see
    :func:`_halo`).  With ``own``, ``states`` and ``pose`` are such a
    window, with its centerline ``pose.p`` already integrated from
    ``pose.velocity``, and only the audits of its rows ``own`` are
    computed: the whole lattice here and the streamed pass of
    :func:`run_pipeline` audit every block through this call.  A window's
    pose is given the lattice's first sample times, so its step is the
    lattice's own ``times[1] - times[0]`` to the bit (the first difference
    inside a window can differ from it in the last place).  The
    whole-lattice pose returned carries R y1 in ``velocity``.
    """
    p0 = np.asarray(p0, dtype=float)
    h_p = np.asarray(h_p, dtype=float)
    if np.abs(p0[-1] - h_p).max() > 1e-10:
        raise EndpointMismatch(f"p0(L) differs from clamp by {np.abs(p0[-1] - h_p).max():.3g}")

    dt = pose.times[1] - pose.times[0]
    dx = pose.grid[1] - pose.grid[0]
    if own is not None:
        tangent, p2 = _from_clamp(pose.R, _stack(states, 0, len(states)), h_p, dx)
        gap = np.abs(pose.p[own] - p2[own]).max(axis=(1, 2))
        mixed = diff1(pose.velocity[own], dx, axis=1) - diff1(tangent, dt, axis=0)[own]
        return replace(
            pose, residual_centerline=np.abs(mixed).max(axis=(1, 2)), route_gap=float(gap.max())
        )

    # p = p0 + cumulative_trapezoid(R y1, dt), summed block by block
    n_times = len(pose.times)
    p = np.empty(pose.R.shape[:-1])
    vel = np.empty_like(p)
    carry = None
    for lo, hi in _blocks(n_times):
        vel[lo:hi] = _velocity(pose.R[lo:hi], states[lo:hi])
        p[lo:hi], carry = _time_sums(vel[lo:hi], carry, dt)
    p += p0
    pose = replace(pose, p=p, velocity=vel)

    gaps = []
    residual = np.empty(n_times)
    for lo, hi in _blocks(n_times):
        wlo, whi = _halo(lo, hi, n_times)
        window = replace(
            pose, times=pose.times[: whi - wlo], R=pose.R[wlo:whi], p=pose.p[wlo:whi],
            velocity=pose.velocity[wlo:whi],
        )
        own = slice(lo - wlo, hi - wlo)
        audit = reconstruct_centerline(states[wlo:whi], window, p0, h_p, own=own)
        residual[lo:hi] = audit.residual_centerline
        gaps.append(audit.route_gap)
    return replace(pose, residual_centerline=residual, route_gap=float(np.max(gaps)))


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


class _Pass:
    """The pose of one run, built block by block as its records arrive.

    Each record arrives in physical variables, as the solver formed them
    for its step, and is swept in time.  The record that completes a block
    of ``TIME_BLOCK`` records rotates the block, integrates its centerline
    from R y1 and takes its decay observable; then it audits the block
    before it, whose halo ends on this block's first row (the centerline
    residuals, which read the same R y1, and the round trip), and at the
    lattice's end the last block too.  Per time sample the pass keeps only
    the scalars, and the pose only on the snapshot rows.

    The rows still read (the states, q, R, p and R y1) live in a window of
    ``2 TIME_BLOCK + 1`` rows, one allocation made once per pass: the block
    waiting for its audit, the row before it and the block being filled.
    Once a block is audited, the rows from one before the next block on
    move to the window's front.  A block and its halo are contiguous
    slices of it, as they were of the whole-lattice arrays.
    (glibc malloc raises its mmap threshold to the largest chunk freed, so
    after one pass the blocks' temporaries stay in its heap.  With fresh
    arrays for every block they went back to the system between blocks,
    and page faults made ``reconstruct`` about 20% slower.)
    """

    def __init__(self, reference: PrecurvedReference, n_times: int):
        self.reference = reference
        self.n_times = n_times
        self.h_p = model.reference_centerline(reference)[-1]
        self.p0 = self.carry = None
        self.times = np.empty(n_times)
        self.residual_rotation = np.empty(n_times)
        self.residual_centerline = np.empty(n_times)
        self.observable = np.empty(n_times)
        self.norm_defects, self.gaps, self.errors = [], [], []
        rows = np.linspace(0, n_times - 1, MAX_POSE_SNAPSHOTS).astype(int)
        self.indices = [int(k) for k in sorted(set(rows))]
        self.snapshot_q, self.snapshot_p = [], []

        # the window, whose row i holds lattice row first + i
        assert TIME_BLOCK >= 2
        n_rows, n_nodes = min(n_times, 2 * TIME_BLOCK + 1), len(reference.grid)
        shapes = [(12,), (4,), (3, 3), (3,), (3,)]  # physical states, q, R, p, R y1
        sizes = [n_rows * n_nodes * math.prod(shape) for shape in shapes]
        parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self.window = [part.reshape((n_rows, n_nodes) + s) for part, s in zip(parts, shapes)]
        self.y, self.q, self.R, self.p, self.velocity = self.window
        self.first = self.received = 0

    @property
    def dt(self) -> float:
        return self.times[1] - self.times[0]

    def _states(self, lo: int, hi: int) -> list[StateField]:
        return [
            StateField(self.reference.grid, "physical", self.y[k - self.first], self.times[k])
            for k in range(lo, hi)
        ]

    def push(self, record: StateField) -> None:
        """Take the physical state of the run's next record."""
        k = self.received
        self.received += 1
        if k >= self.n_times:  # a ragged final record is simulated, not reconstructed
            return
        i = k - self.first
        self.y[i] = record.values
        self.times[k] = record.time
        if k == 0:
            self.q[i] = _sweep_x(self.y[i], self.reference, self.reference.rotation[-1])
        else:
            self.q[i] = _sweep_t(self.q[i - 1], self.y[i - 1], self.y[i], self.dt)
        if self.received % TIME_BLOCK and self.received < self.n_times:
            return
        lo = k - k % TIME_BLOCK
        self._rotate(lo, self.received)
        if lo:
            self._audit(lo - TIME_BLOCK, lo)
        if self.received == self.n_times:
            self._audit(lo, self.received)
        # the next time step reads row k, the next audit rows lo - 1 on
        keep = max(lo - 1, 0)
        for rows in self.window:
            rows[: self.received - keep] = rows[keep - self.first : self.received - self.first]
        self.first = keep

    def _rotate(self, lo: int, hi: int) -> None:
        rows = slice(lo - self.first, hi - self.first)
        states = self._states(lo, hi)
        pose = reconstruct_rotation(
            states, self.reference, self.reference.rotation[-1], q=self.q[rows]
        )
        self.R[rows] = pose.R
        self.norm_defects.append(pose.norm_defect)
        self.residual_rotation[lo:hi] = pose.residual_rotation
        if lo == 0:
            _, self.p0 = _from_clamp(pose.R[0], states[0].values, self.h_p, self.reference.dx)
        vel = _velocity(pose.R, states)
        self.velocity[rows] = vel
        sums, self.carry = _time_sums(vel, self.carry, self.dt)
        np.add(sums, self.p0, out=self.p[rows])
        self.observable[lo:hi] = decay_observable(pose, states)[1]
        for k in self.indices:
            if lo <= k < hi:
                self.snapshot_q.append(self.q[k - self.first].copy())
                self.snapshot_p.append(self.p[k - self.first].copy())

    def _audit(self, lo: int, hi: int) -> None:
        wlo, whi = _halo(lo, hi, self.n_times)
        rows = slice(wlo - self.first, whi - self.first)
        states = self._states(wlo, whi)
        window = PoseField(
            self.reference.grid, self.times[: whi - wlo], R=self.R[rows], p=self.p[rows],
            velocity=self.velocity[rows],
        )
        own = slice(lo - wlo, hi - wlo)
        audit = reconstruct_centerline(states, window, self.p0, self.h_p, own=own)
        self.residual_centerline[lo:hi] = audit.residual_centerline
        self.gaps.append(audit.route_gap)
        back = model.strains_velocities_from_pose(window, self.reference)[own]
        self.errors.append(float(np.abs(back - _stack(states, own.start, own.stop)).max()))

    def result(self) -> Reconstruction:
        return Reconstruction(
            times=self.times,
            norm_defect=float(np.max(self.norm_defects)),
            residual_rotation=self.residual_rotation,
            residual_centerline=self.residual_centerline,
            route_gap=float(np.max(self.gaps)),
            roundtrip_error=max(self.errors),
            observable=self.observable,
            indices=self.indices,
            snapshots=PoseField(
                self.reference.grid, self.times[self.indices],
                q=np.stack(self.snapshot_q), p=np.stack(self.snapshot_p),
            ),
        )


def run_pipeline(
    config: solver.SimConfig,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    datum: StateField,
    cert=None,
) -> tuple[solver.Trajectory, Reconstruction]:
    """Simulate, rebuilding the pose from the clamped end as the records arrive.

    The stride ``config.output_stride`` is raised when needed to keep at
    most ``MAX_RECONSTRUCT_RECORDS`` records after t = 0, and at most
    ``MAX_RECONSTRUCT_POINTS`` lattice points in all.  A ragged final
    record is simulated but not reconstructed (the quaternion sweeps need a
    uniform time lattice), and the initial shape is the quadrature from the
    clamp.  The records are consumed in one pass (see :class:`_Pass`), so
    no history is stored; on Linux the simulation runs meanwhile in a
    forked child (:func:`.forked.simulate`).  Returns (trajectory,
    reconstruction); raises :class:`ValidationError` when fewer than three
    evenly spaced records would remain.
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
    run = _Pass(reference, n_steps // stride + 1)
    config = replace(config, store_snapshots=False, output_stride=stride)
    if _FORK:
        from .forked import simulate  # here: the other commands never compile it
    else:
        simulate = solver.simulate
    traj = simulate(config, matrices, reference, datum, cert=cert, lyap_order=1, on_record=run.push)
    return traj, run.result()


def pose_snapshot_to_csv(pose: PoseField, index: int) -> str:
    """One time sample of a full pose: x, centerline, quaternion."""
    rows = np.column_stack([pose.grid, pose.p[index], pose.q[index]]).tolist()
    return f"# t = {pose.times[index]:.17g}\n" + csv_table(
        ["x", "p1", "p2", "p3", "q0", "q1", "q2", "q3"], rows
    )


def pose_residuals_to_csv(pose: PoseField | Reconstruction) -> str:
    """Residual summary of a full pose over time: rotation audit, centerline compatibility."""
    out = f"# norm_defect = {pose.norm_defect:.17g}\n# route_gap = {pose.route_gap:.17g}\n"
    rows = np.column_stack([pose.times, pose.residual_rotation, pose.residual_centerline]).tolist()
    return out + csv_table(["t", "residual_rotation", "residual_centerline"], rows)
