"""Coefficients and nonlinearities of the intrinsic beam model.

The intrinsic model evolves the 12-vector ``y = (v, s)`` of body-frame
velocities and strains,

    dt y + A dx y + Bbar y = gbar(y),

with ``A`` constant (see :mod:`beamstab.params`) and ``Bbar`` built from the
initial strain matrix of the undeformed (possibly precurved) shape, whose
curvature is one constant 3-vector.  In characteristic variables
``r = L y`` the same dynamics read

    dt r + diag(-D, D) dx r + B r = g(r),      B = L Bbar L^{-1},
    g(r) = L gbar(L^{-1} r).

This module assembles the coupling B for a given reference shape, evaluates
the quadratic nonlinearity in both representations, and implements the map
from a pose history ``(p, R)`` to intrinsic variables.  A reference holds
its grid, its curvature and the coupling B; the reference rotation R(x) is
integrated from the curvature only when a pose is built, on the first read
of ``PrecurvedReference.rotation``.  The nonlinearity is read from its
coefficient tensor ``BeamMatrices.quadratic``, its one definition.

The reference is immutable after assembly; all evaluation functions
are pure.  The nonlinearity accepts batched states (leading axes
broadcast); the coupling is built from the one curvature 3-vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotARotation, ValidationError
from .fd import cumulative_trapezoid, diff1
from .params import BeamMatrices, derive_matrices

__all__ = [
    "hat",
    "PrecurvedReference",
    "StateField",
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


@dataclass(frozen=True)
class PrecurvedReference:
    """The beam before deformation: a grid and one constant curvature.

    ``curvature`` is the rotational strain of the undeformed shape, the
    same on every node; with the grid it is the whole geometry.
    ``coupling_char`` is the one matrix derived from it, the 12x12
    lower-order coupling B = L Bbar L^{-1} in characteristic variables (see
    :func:`coupling_pattern_blocks`), which the solver and the certificate
    read.  The reference rotation R(x) is needed only to turn intrinsic
    variables back into poses, so ``rotation`` is integrated on its first
    read and cached.
    """

    grid: np.ndarray            # (N+1,)
    curvature: np.ndarray       # (3,)
    coupling_char: np.ndarray   # (12, 12)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @cached_property
    def rotation(self) -> np.ndarray:
        """Reference rotation R(x) on each grid node, (N+1, 3, 3).

        Solves dR/dx = R hat(curvature) from R(0) = I with classical RK4
        and a polar re-projection each step, which keeps the orthogonality
        defect at roundoff level over long beams.
        """
        grid = self.grid
        h = grid[1] - grid[0]
        u = hat(self.curvature)
        rotation = np.empty((len(grid), 3, 3))
        rotation[0] = np.eye(3)
        for j in range(len(grid) - 1):
            r = rotation[j]
            k1 = r @ u
            k2 = (r + 0.5 * h * k1) @ u
            k3 = (r + 0.5 * h * k2) @ u
            k4 = (r + h * k3) @ u
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
    """Initial strain matrix (6, 6) of a curvature 3-vector."""
    hc = hat(curvature)
    out = np.zeros((6, 6))
    out[:3, :3] = hc
    out[3:, 3:] = hc
    out[3:, :3] = hat(E1)
    return out


def coupling_pattern_blocks(matrices: BeamMatrices, strain_matrix: np.ndarray) -> np.ndarray:
    """Characteristic coupling B = L Bbar L^{-1} of one strain matrix, in closed form.

    Bbar = [0, -M^{-1} E C^{-1}; E^T, 0] is the physical coupling of the
    (6, 6) strain matrix E.  With P = D E^T and S = M^{-1} E D M the
    conjugate is 0.5 * [[P - S, P + S], [-(P + S), -(P - S)]].
    """
    eb = np.asarray(strain_matrix, dtype=float)
    d = matrices.speed
    m = matrices.mass
    p = d[:, None] * eb.T
    s = (1.0 / m)[:, None] * eb * (d * m)[None, :]
    out = np.zeros((12, 12))
    out[:6, :6] = 0.5 * (p - s)
    out[:6, 6:] = 0.5 * (p + s)
    out[6:, :6] = -0.5 * (p + s)
    out[6:, 6:] = -0.5 * (p - s)
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
    params, n_cells: int, curvature, matrices: BeamMatrices | None = None
) -> PrecurvedReference:
    """Reference data for a beam of constant curvature, zero being straight.

    ``curvature`` is the rotational strain of the undeformed shape, a
    3-vector.  ``matrices`` are the derived matrices of ``params`` when
    the caller already holds them.  The rotation field is not integrated
    here (see :attr:`PrecurvedReference.rotation`).
    """
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    if matrices is None:
        matrices = derive_matrices(params)
    grid = np.linspace(0.0, params.length, n_cells + 1)
    curvature = np.asarray(curvature, dtype=float)
    if curvature.shape != (3,) or not np.all(np.isfinite(curvature)):
        raise ValidationError(["reference.curvature must be a finite 3-vector"])
    with np.errstate(all="ignore"):  # an overflowing coupling is reported below
        coupling = coupling_pattern_blocks(matrices, _strain_matrix(curvature))
    if not np.all(np.isfinite(coupling)):
        raise ValidationError(["reference.curvature overflows the coupling"])
    return PrecurvedReference(grid, curvature, coupling)


# --- quadratic nonlinearity -------------------------------------------------


def gbar_pair(matrices: BeamMatrices, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear map whose diagonal is the physical nonlinearity: gbar(y) = gbar_pair(y, y).

    One contraction with ``matrices.quadratic``: sum_jk Q[i, j, k] u_j v_k.
    Leading axes of ``u`` and ``v`` broadcast.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    coeffs = (u @ matrices.quadratic_rows).reshape(u.shape[:-1] + (12, 12))
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


def _column_dot(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """Entry (i, j) of a^T b for stacks of 3x3 matrices: column i of a dotted with column j of b."""
    return a[..., 0, i] * b[..., 0, j] + a[..., 1, i] * b[..., 1, j] + a[..., 2, i] * b[..., 2, j]


def _skew_vec(rot: np.ndarray, deriv: np.ndarray) -> np.ndarray:
    """vec(R^T dR), the axial vector of its skew part, from its three antisymmetric differences."""
    return 0.5 * np.stack(
        [
            _column_dot(rot, deriv, 2, 1) - _column_dot(rot, deriv, 1, 2),
            _column_dot(rot, deriv, 0, 2) - _column_dot(rot, deriv, 2, 0),
            _column_dot(rot, deriv, 1, 0) - _column_dot(rot, deriv, 0, 1),
        ],
        axis=-1,
    )


def strains_velocities_from_pose(pose, reference: PrecurvedReference) -> np.ndarray:
    """Intrinsic variables of a sampled pose history.

    ``pose`` needs sample times ``times`` (T,), centerline positions ``p``
    (T, N+1, 3) and rotations ``R`` (T, N+1, 3, 3) on the reference grid,
    with uniform time steps.  Velocities and strains are evaluated with
    the shared second-order stencils:

        V = R^T dt p,        W = vec(R^T dt R),
        Gamma = R^T dx p - e1,  Upsilon = vec(R^T dx R) - curvature.

    Only the entries that are read are formed, each as a dot product of
    two columns: the six distinct entries of R^T R for the orthogonality
    check, and the three antisymmetric differences of R^T dt R and
    R^T dx R whose halves are vec, the inverse of ``hat``.  Returns the
    physical values (T, N+1, 12).  Raises :class:`NotARotation` when a
    rotation sample is not orthogonal.
    """
    times = np.asarray(pose.times, dtype=float)
    rot = np.asarray(pose.R, dtype=float)
    pos = np.asarray(pose.p, dtype=float)
    dx = reference.grid[1] - reference.grid[0]
    dt = times[1] - times[0]

    defect = max(
        np.abs(_column_dot(rot, rot, i, j) - (i == j)).max()
        for i in range(3)
        for j in range(i, 3)
    )
    if defect > 1e-6:
        raise NotARotation(f"rotation samples have orthogonality defect {defect:.3g}")

    dp_dt = diff1(pos, dt, axis=0)
    dp_dx = diff1(pos, dx, axis=1)

    v_lin = np.einsum("tnji,tnj->tni", rot, dp_dt)
    w_ang = _skew_vec(rot, diff1(rot, dt, axis=0))
    gamma = np.einsum("tnji,tnj->tni", rot, dp_dx) - E1
    upsilon = _skew_vec(rot, diff1(rot, dx, axis=1)) - reference.curvature
    return np.concatenate([v_lin, w_ang, gamma, upsilon], axis=-1)


def reference_centerline(reference: PrecurvedReference) -> np.ndarray:
    """Centerline of the undeformed beam: trapezoid quadrature of R e1 from 0."""
    return cumulative_trapezoid(reference.rotation[:, :, 0], reference.dx)
