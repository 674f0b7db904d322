"""The rotation at t = 0, swept along x from the clamped end.

The x-equation dx q = U(y4 + curvature) q is integrated once, at t = 0,
by RK4 on a not-a-knot cubic-spline interpolant of its generator (see
:mod:`beamstab.reconstruct`).  The pose residuals that ``reconstruct``
reports amplify a one-ulp change in that interpolant to about 1e-11, so
the spline here is, to the bit, the not-a-knot ``CubicSpline`` (version
1.17) that the sweep once imported and that the tests keep as its
oracle: its formulas term for term, the node slopes solved by LAPACK
``dgtsv``'s elimination, and the pieces evaluated in ``PPoly``'s order.
On the evenly spaced grids that ``curved_reference`` builds, ``dgtsv``
swaps no row, so only its no-swap elimination is kept.  The bits agree
as long as neither side contracts a multiply and an add into one fused
operation.

Only the first record of a reconstruction is swept in x, and
:mod:`beamstab.reconstruct` imports this module when it first sweeps, so
the other commands never compile it.
"""

from __future__ import annotations

import numpy as np

from .model import PrecurvedReference
from .reconstruct import quaternion_from_rotation, umap

__all__ = ["sweep_x", "not_a_knot", "evaluate"]


def sweep_x(values: np.ndarray, reference: PrecurvedReference, r_in: np.ndarray) -> np.ndarray:
    """Quaternion field (N+1, 4) at t = 0, swept from the clamped end leftward.

    RK4 with per-step renormalization on a not-a-knot cubic-spline
    interpolant of y4 + curvature, ``values`` being the sample's (N+1, 12)
    physical values, seeded by the rotation matrix ``r_in`` = R(L, 0).
    The generators at the three stage points of every step are built
    before the sweep.
    """
    grid = reference.grid
    coeffs = not_a_knot(grid, reference.curvature + values[:, 9:12])
    h = -reference.dx
    x = grid[1:]
    stages = np.stack([x, x + 0.5 * h, x + h], axis=1).ravel()
    u = umap(evaluate(grid, coeffs, stages)).reshape(len(x), 3, 4, 4)
    q0 = np.empty((len(grid), 4))
    q0[-1] = quaternion_from_rotation(r_in)
    for j in range(len(grid) - 1, 0, -1):
        qj = q0[j]
        u_x, u_mid, u_end = u[j - 1]
        k1 = u_x @ qj
        k2 = u_mid @ (qj + 0.5 * h * k1)
        k3 = u_mid @ (qj + 0.5 * h * k2)
        k4 = u_end @ (qj + h * k3)
        nxt = qj + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        q0[j - 1] = nxt / np.linalg.norm(nxt)
    return q0


def _tridiagonal_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution of the tridiagonal system (dl, d, du) x = b, b being (n, k).

    LAPACK ``dgtsv``'s elimination where it swaps no row, in its order of
    operations: the k right-hand sides are eliminated together, row by
    row.  ``dgtsv`` swaps rows i and i + 1 where |d[i]| < |dl[i]|, which
    the not-a-knot system of an evenly spaced grid never meets.
    """
    n = len(d)
    dl, d, du = dl.tolist(), d.tolist(), du.tolist()
    b = b.copy()
    for i in range(n - 1):
        assert abs(d[i]) >= abs(dl[i]), "the elimination would swap rows"
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        # dgtsv subtracts its zero fill-in too, which can turn -0.0 into +0.0
        b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    return b


def not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, n-1, k) of the not-a-knot cubic spline through (x, y), y being (n, k).

    Interval i holds c[0] z^3 + c[1] z^2 + c[2] z + c[3] in z = x - x[i].
    The node slopes s solve the tridiagonal system of the spline's C^2
    conditions, closed at each end by continuity of the third derivative
    across the second node.  ``x`` must be evenly spaced, so that the
    slopes are solved with no row swap; n >= 4.
    """
    n = len(x)
    assert n >= 4, "the not-a-knot spline needs four nodes"
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    d, du, dl = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    b = np.empty_like(y)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d[0], du[0] = dx[1], x[2] - x[0]
    w = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * w) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / w
    d[-1], dl[-1] = dx[-2], x[-1] - x[-3]
    w = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * w + dxr[-1]) * dxr[-2] * slope[-1]) / w
    s = _tridiagonal_solve(dl, d, du, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def evaluate(x: np.ndarray, c: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Values (len(at), k) of the spline ``c`` on the nodes ``x`` at the points ``at``.

    Intervals are closed on the left, the last one on both sides, and the
    end intervals extend beyond the nodes.  The power sum starts from 0.0
    (so a constant term of -0.0 gives +0.0) and runs from the constant
    term up, with z^2 = z z and z^3 = z^2 z.
    """
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, len(x) - 2)
    z = (at - x[i])[:, None]
    z2 = z * z
    return 0.0 + c[3, i] + c[2, i] * z + c[1, i] * z2 + c[0, i] * (z2 * z)
