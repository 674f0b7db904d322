"""Spatially varying coefficients and nonlinearities of the intrinsic beam model.

The intrinsic model evolves the 12-vector ``y = (v, s)`` of body-frame
velocities and strains,

    dt y + A dx y + Bbar(x) y = gbar(y),

with ``A`` constant (see :mod:`beamstab.params`) and ``Bbar`` built from the
initial strain matrix of the undeformed (possibly precurved) shape.  In
characteristic variables ``r = L y`` the same dynamics read

    dt r + diag(-D, D) dx r + B(x) r = g(r),      B = L Bbar L^{-1},
    g(r) = L gbar(L^{-1} r).

This module assembles the per-node coefficient tables for a given reference
shape, evaluates the quadratic nonlinearity in both representations, and
implements the map from a pose history ``(p, R)`` to intrinsic variables.
A reference holds its grid, its curvature and the coupling B; the
reference rotation R(x) is integrated from the curvature only when a pose
is built, on the first read of ``PrecurvedReference.rotation``.
The nonlinearity is read from its coefficient tensor
``BeamMatrices.quadratic``, its one definition.

Coefficient tables are immutable after assembly; all evaluation functions
are pure and accept batched inputs (leading axes broadcast).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotARotation, ValidationError
from .fd import cumulative_trapezoid, diff1
from .params import BeamMatrices, derive_matrices

__all__ = [
    "hat",
    "vec",
    "PrecurvedReference",
    "StateField",
    "straight_reference",
    "curved_reference",
    "coupling_pattern_blocks",
    "gbar",
    "gbar_pair",
    "g_diag",
    "g_diag_pair",
    "to_physical",
    "strains_velocities_from_pose",
    "reference_centerline",
]

E1 = np.array([1.0, 0.0, 0.0])


def hat(u: np.ndarray) -> np.ndarray:
    """Skew matrix of a 3-vector, so that hat(u) @ w == cross(u, w)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (3, 3))
    out[..., 0, 1] = -u[..., 2]
    out[..., 0, 2] = u[..., 1]
    out[..., 1, 0] = u[..., 2]
    out[..., 1, 2] = -u[..., 0]
    out[..., 2, 0] = -u[..., 1]
    out[..., 2, 1] = u[..., 0]
    return out


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


@dataclass(frozen=True)
class PrecurvedReference:
    """Per-node data describing the beam before deformation.

    ``curvature`` holds the rotational strain of the undeformed shape on
    each grid node, sampled from ``curvature_fn(x) -> 3-vector``; with the
    grid it is the whole geometry.  ``coupling_char`` is the one table
    derived from it, the 12x12 lower-order coupling B = L Bbar L^{-1} in
    characteristic variables (see :func:`coupling_pattern_blocks`), which
    the solver and the certificate read.  The reference rotation R(x) is
    needed only to turn intrinsic variables back into poses, so
    ``rotation`` is integrated on its first read and cached.
    """

    grid: np.ndarray                                # (N+1,)
    curvature: np.ndarray                           # (N+1, 3)
    coupling_char: np.ndarray                       # (N+1, 12, 12)
    curvature_fn: Callable[[float], np.ndarray]     # x -> 3-vector

    @property
    def n_cells(self) -> int:
        return len(self.grid) - 1

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @cached_property
    def rotation(self) -> np.ndarray:
        """Reference rotation R(x) on each grid node, (N+1, 3, 3).

        Solves dR/dx = R hat(curvature_fn(x)) from R(0) = I with classical
        RK4 and a polar re-projection each step, which keeps the
        orthogonality defect at roundoff level over long beams.
        """
        grid = self.grid
        h = grid[1] - grid[0]
        rotation = np.empty((len(grid), 3, 3))
        rotation[0] = np.eye(3)
        for j in range(len(grid) - 1):
            x = grid[j]
            r = rotation[j]
            hat_mid = hat(self.curvature_fn(x + 0.5 * h))
            k1 = r @ hat(self.curvature_fn(x))
            k2 = (r + 0.5 * h * k1) @ hat_mid
            k3 = (r + 0.5 * h * k2) @ hat_mid
            k4 = (r + h * k3) @ hat(self.curvature_fn(x + h))
            rotation[j + 1] = _polar_project(r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        return rotation


@dataclass(frozen=True)
class StateField:
    """Grid samples of the 12-component state at one instant."""

    grid: np.ndarray       # (N+1,)
    repr: str              # "physical" | "diagonal"
    values: np.ndarray     # (N+1, 12)
    time: float = 0.0


def _strain_matrix(curvature: np.ndarray) -> np.ndarray:
    """Initial strain matrix samples from curvature samples (..., 3)."""
    hc = hat(curvature)
    n = curvature.shape[:-1]
    out = np.zeros(n + (6, 6))
    out[..., :3, :3] = hc
    out[..., 3:, 3:] = hc
    out[..., 3:, :3] = hat(np.broadcast_to(E1, n + (3,)))
    return out


def coupling_pattern_blocks(matrices: BeamMatrices, strain_matrix: np.ndarray) -> np.ndarray:
    """Characteristic coupling B = L Bbar L^{-1} in closed form, batched.

    Bbar = [0, -M^{-1} E C^{-1}; E^T, 0] is the physical coupling of the
    strain matrix E.  With P = D E^T and S = M^{-1} E D M the conjugate is
    0.5 * [[P - S, P + S], [-(P + S), -(P - S)]].
    """
    eb = np.asarray(strain_matrix, dtype=float)
    lead = eb.shape[:-2]
    d = matrices.speed
    m = matrices.mass
    p = d[:, None] * np.swapaxes(eb, -1, -2)
    s = (1.0 / m)[:, None] * eb * (d * m)[None, :]
    out = np.zeros(lead + (12, 12))
    out[..., :6, :6] = 0.5 * (p - s)
    out[..., :6, 6:] = 0.5 * (p + s)
    out[..., 6:, :6] = -0.5 * (p + s)
    out[..., 6:, 6:] = -0.5 * (p - s)
    return out


def _polar_project(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar factor) of a near-rotation 3x3 matrix."""
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        u[:, -1] *= -1.0
        out = u @ vt
    return out


def curved_reference(
    params, n_cells: int, curvature_fn, matrices: BeamMatrices | None = None
) -> PrecurvedReference:
    """Reference data for a precurved/pretwisted beam.

    ``curvature_fn(x) -> 3-vector`` is the rotational strain of the
    undeformed shape.  ``matrices`` are the derived matrices of ``params``
    when the caller already holds them.  The rotation field is not
    integrated here (see :attr:`PrecurvedReference.rotation`).  C2-smooth
    curvature is recommended for second-order convergence of everything
    built on top; this is documented, not checked.
    """
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    if matrices is None:
        matrices = derive_matrices(params)
    grid = np.linspace(0.0, params.length, n_cells + 1)
    curvature = np.array([np.asarray(curvature_fn(x), dtype=float) for x in grid])
    if curvature.shape != (n_cells + 1, 3) or not np.all(np.isfinite(curvature)):
        raise ValidationError(["curvature_fn must return finite 3-vectors"])
    coupling = coupling_pattern_blocks(matrices, _strain_matrix(curvature))
    return PrecurvedReference(grid, curvature, coupling, curvature_fn)


def straight_reference(
    params, n_cells: int, matrices: BeamMatrices | None = None
) -> PrecurvedReference:
    """Reference data for a straight, untwisted beam: zero curvature, R(x) = I."""
    return curved_reference(params, n_cells, lambda x: np.zeros(3), matrices)


# --- quadratic nonlinearity -------------------------------------------------


def gbar_pair(matrices: BeamMatrices, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear map whose diagonal is the physical nonlinearity: gbar(y) = gbar_pair(y, y).

    One contraction with ``matrices.quadratic``: sum_jk Q[i, j, k] u_j v_k.
    Leading axes of ``u`` and ``v`` broadcast.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    q = matrices.quadratic.transpose(1, 0, 2).reshape(12, 144)
    coeffs = (u @ q).reshape(u.shape[:-1] + (12, 12))
    return (coeffs @ v[..., None])[..., 0]


def gbar(matrices: BeamMatrices, y: np.ndarray) -> np.ndarray:
    """Quadratic nonlinearity in physical variables; vanishes with its Jacobian at 0."""
    return gbar_pair(matrices, y, y)


def g_diag(matrices: BeamMatrices, r: np.ndarray) -> np.ndarray:
    """Nonlinearity in characteristic variables: g(r) = L gbar(L^{-1} r)."""
    y = np.asarray(r, dtype=float) @ matrices.from_char.T
    return gbar(matrices, y) @ matrices.to_char.T


def g_diag_pair(matrices: BeamMatrices, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear version of g_diag; g_diag_pair(r, h) + g_diag_pair(h, r) = (Jac g)(r) h."""
    yu = np.asarray(u, dtype=float) @ matrices.from_char.T
    yv = np.asarray(v, dtype=float) @ matrices.from_char.T
    return gbar_pair(matrices, yu, yv) @ matrices.to_char.T


# --- representation changes -------------------------------------------------


def to_physical(state: StateField, matrices: BeamMatrices) -> StateField:
    """Node-wise change back to physical variables y = L^{-1} r."""
    if state.repr != "diagonal":
        raise ValueError(f"expected a diagonal state, got {state.repr!r}")
    return StateField(state.grid, "physical", state.values @ matrices.from_char.T, state.time)


# --- pose -> intrinsic variables ---------------------------------------------


def strains_velocities_from_pose(pose, reference: PrecurvedReference):
    """Intrinsic variables of a sampled pose history.

    ``pose`` needs sample times ``times`` (T,), centerline positions ``p``
    (T, N+1, 3) and rotations ``R`` (T, N+1, 3, 3) on the reference grid,
    with uniform time steps.  Velocities and strains are evaluated with
    the shared second-order stencils:

        V = R^T dt p,        W = vec(R^T dt R),
        Gamma = R^T dx p - e1,  Upsilon = vec(R^T dx R) - curvature.

    Returns one physical :class:`StateField` per time sample.  Raises
    :class:`NotARotation` when a rotation sample is not orthogonal.
    """
    grid = reference.grid
    times = np.asarray(pose.times, dtype=float)
    rot = np.asarray(pose.R, dtype=float)
    pos = np.asarray(pose.p, dtype=float)
    dx = grid[1] - grid[0]
    dt = times[1] - times[0]

    defect = np.abs(np.einsum("tnji,tnjk->tnik", rot, rot) - np.eye(3)).max()
    if defect > 1e-6:
        raise NotARotation(f"rotation samples have orthogonality defect {defect:.3g}")

    dp_dt = diff1(pos, dt, axis=0)
    dp_dx = diff1(pos, dx, axis=1)
    dr_dt = diff1(rot, dt, axis=0)
    dr_dx = diff1(rot, dx, axis=1)

    v_lin = np.einsum("tnji,tnj->tni", rot, dp_dt)
    w_ang = vec(np.einsum("tnji,tnjk->tnik", rot, dr_dt))
    gamma = np.einsum("tnji,tnj->tni", rot, dp_dx) - E1
    upsilon = vec(np.einsum("tnji,tnjk->tnik", rot, dr_dx)) - reference.curvature

    values = np.concatenate([v_lin, w_ang, gamma, upsilon], axis=-1)
    return [
        StateField(grid, "physical", values[k], float(times[k])) for k in range(len(times))
    ]


def reference_centerline(reference: PrecurvedReference) -> np.ndarray:
    """Centerline of the undeformed beam: trapezoid quadrature of R e1 from 0."""
    return cumulative_trapezoid(reference.rotation[:, :, 0], reference.dx)
