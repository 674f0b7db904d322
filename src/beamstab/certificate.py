"""Quadratic Lyapunov certificate for the characteristic beam system.

The closed loop is certified stable when a diagonal matrix field Q(x) > 0
satisfies

* boundary conditions:  kappa^2 Q+(0) - Q-(0)  and  Q-(L) - Q+(L)
  negative semi-definite,
* interior condition:   dQ/dx diag(-D, D) - Q B - B^T Q  negative definite
  on [0, L].

Following the weighted-energy ansatz Q = diag(w- I6, w+ I6) Q_char with
w- = phi, w+ = 2 phi(L) - phi, everything reduces to a scalar generator
phi that must satisfy  phi > 0,  phi' > 0,  phi' > 2 c (phi(L) - phi)
with c = max_x q_m(x), plus the endpoint window
phi(L) in [phi(0), (1 + 1/C_kappa)/2 * phi(0)].  The generator

    phi(x) = phi(L) - exp(-2 c x) (1 - x/L) (phi(L) - phi(0))

satisfies all three strictly (its slack is exp(-2cx) (phiL - phi0) / L).

Two sufficient per-node margins are reported alongside the directly
eigensolved interior condition: a diagonal-dominance slack built from
q_1, the largest weighted absolute row sum of the symmetric coupling
Theta(x), and a Weyl-bound slack built from its largest eigenvalue via
q_2.  Either margin being positive implies the interior matrix is
negative definite; the eigensolve is the ground truth either way.
:func:`verify_certificate` returns the certificate with these margins
and its validity filled in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CkappaDegenerate, ValidationError, WindowViolation
from .model import PrecurvedReference, _strain_matrix
from .params import BeamMatrices, BeamParams
from .table import csv_table

__all__ = [
    "LyapunovCertificate",
    "theta_matrix",
    "theta_functions",
    "build_phi",
    "phi_window",
    "build_certificate",
    "verify_certificate",
    "decay_rate_estimate",
    "certificate_to_csv",
]

# Negative-definiteness is asserted up to this relative eigenvalue margin.
MARGIN_RTOL = 1e-10


@dataclass(frozen=True)
class LyapunovCertificate:
    """Weight field, per-node matrices and verification margins.

    ``gap`` carries phi(L) - phi(x) in analytic product form.  For stiff
    beams the admissible gap decays like exp(-2 C_q x) and must never be
    recovered by subtracting near-equal weights: every verification
    quantity that involves the gap or the derivative uses these analytic
    fields, which stay accurate down to the underflow threshold.
    """

    m: int                       # which q_m bound generated phi (1 or 2)
    c: float                     # C_{q_m} = max_x q_m(x)
    phi0: float
    phiL: float
    grid: np.ndarray             # (N+1,)
    params: BeamParams           # parameters the bounds q_1, q_2 were computed from
    curvature: np.ndarray        # (N+1, 3) reference curvature of the same
    dphi: np.ndarray             # (N+1,) analytic derivative
    gap: np.ndarray              # (N+1,) analytic phi(L) - phi(x)
    w_minus: np.ndarray          # (N+1,)
    w_plus: np.ndarray           # (N+1,)
    q_diag: np.ndarray           # (N+1, 12) diagonal of Q(x)
    q1: np.ndarray               # (N+1,) row-sum bound q_1 of the coupling
    q2: np.ndarray               # (N+1,) eigenvalue bound q_2 of the coupling
    reflection_bound: float      # C_kappa used for the window
    boundary_margins_0: np.ndarray | None = None   # (6,) eigs of k^2 Q+(0) - Q-(0)
    boundary_margins_L: np.ndarray | None = None   # (6,) eigs of Q-(L) - Q+(L)
    interior_margins: np.ndarray | None = None     # (N+1,) largest interior eigenvalue
    dominance_slack: np.ndarray | None = None      # (N+1,)
    weyl_slack: np.ndarray | None = None           # (N+1,)
    valid: bool = False


def theta_matrix(matrices: BeamMatrices, curvature: np.ndarray) -> np.ndarray:
    """Symmetric indefinite coupling Theta(x) = -[[0, X], [X, 0]], X = EDM + (EDM)^T."""
    eb = _strain_matrix(np.asarray(curvature, dtype=float))
    dm = matrices.mass * matrices.speed
    x = eb * dm
    x = x + np.swapaxes(x, -1, -2)
    lead = x.shape[:-2]
    out = np.zeros(lead + (12, 12))
    out[..., :6, 6:] = -x
    out[..., 6:, :6] = -x
    return out


def theta_functions(matrices: BeamMatrices, curvature: np.ndarray):
    """Row-sum functions theta_1..theta_6 and the bounds q_1, q_2.

    ``curvature`` is a 3-vector or a batch (..., 3).  Returns
    (theta (..., 6), q1 (...), q2 (...)).  The thetas are the absolute row
    sums of the off-diagonal block of Theta(x) relative to the
    characteristic weights M_i lambda_{i+6}, and q1 is their maximum; q2
    uses the largest eigenvalue of Theta(x) over the smallest of the six
    weights.
    """
    big = theta_matrix(matrices, curvature)
    weights = matrices.mass * matrices.speed
    theta = np.abs(big[..., :6, 6:]).sum(axis=-1) / weights
    q1 = theta.max(axis=-1)
    q2 = np.linalg.eigvalsh(big)[..., -1] / weights.min()
    return theta, q1, q2


@np.errstate(all="ignore")  # overflow is reported by the generator check below
def build_phi(c: float, phi0: float, phiL: float, grid: np.ndarray):
    """Weight generator phi, its analytic derivative, and the analytic gap.

    phi(x) = phiL - exp(-2 c x) (1 - x/L) (phiL - phi0).  Requires
    0 < phi0 < phiL.  Returns (phi, dphi, gap) with gap = phiL - phi kept
    in product form; the three generator conditions are re-checked at every
    node on the analytic quantities (the slack dphi - 2 c gap equals
    exp(-2 c x) (phiL - phi0) / L, positive until it underflows, and the
    check refuses grids on which it underflows to zero).
    """
    if not (phi0 > 0.0 and phi0 < phiL):
        raise ValidationError([f"need 0 < phi0 < phiL, got phi0={phi0!r} phiL={phiL!r}"])
    if c < 0.0:
        raise ValidationError([f"need c >= 0, got {c!r}"])
    grid = np.asarray(grid, dtype=float)
    length = grid[-1]
    alpha = 2.0 * c
    span = phiL - phi0
    damp = np.exp(-alpha * grid)
    gap = damp * (1.0 - grid / length) * span
    gap[-1] = 0.0
    phi = phiL - gap
    dphi = damp * span * (alpha * (1.0 - grid / length) + 1.0 / length)
    slack = damp * span / length
    ok = (phi > 0.0) & (dphi > 0.0) & (dphi < np.inf) & (slack > 0.0)
    if not np.all(ok):
        raise ValidationError(
            ["generator conditions failed (likely exp(-2 c x) underflow: "
             f"2 c L = {alpha * length:.3g} exceeds the double range, "
             f"or phi' overflow: L = {length:.3g})"]
        )
    return phi, dphi, gap


def phi_window(reflection_bound: float, phi0: float) -> tuple[float, float]:
    """Admissible interval for phi(L): [phi0, (1 + 1/C_kappa)/2 * phi0]."""
    if reflection_bound >= 1.0:
        raise CkappaDegenerate("reflection bound >= 1, no admissible weights")
    if reflection_bound == 0.0:
        return phi0, np.inf
    return phi0, 0.5 * (1.0 + 1.0 / reflection_bound) * phi0


def build_certificate(
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    m: int = 1,
    phi0: float = 1.0,
    phiL: float | None = None,
) -> LyapunovCertificate:
    """Construct and verify a certificate on the reference grid.

    ``phiL=None`` picks min(window midpoint, 1.5 phi0).  ``phiL == phi0``
    is accepted and produces constant weights; the interior condition then
    fails and the certificate comes back with ``valid=False`` (useful as a
    negative control).  The bounds q_1, q_2 are computed here once and
    carried on the certificate for verification and reporting.
    """
    if m not in (1, 2):
        raise ValidationError([f"m must be 1 or 2, got {m!r}"])
    if not 0.0 < phi0 < np.inf:
        raise ValidationError([f"phi0 must be finite and > 0, got {phi0!r}"])
    lo, hi = phi_window(matrices.reflection_bound, phi0)
    if phiL is None:
        midpoint = 0.5 * (lo + hi) if np.isfinite(hi) else np.inf
        phiL = min(midpoint, 1.5 * phi0)
    if phiL < lo or phiL > hi * (1.0 + 1e-12):
        raise WindowViolation(
            f"phiL={phiL:.17g} outside [{lo:.17g}, {hi:.17g}] "
            f"for C_kappa={matrices.reflection_bound:.17g}"
        )

    _, q1, q2 = theta_functions(matrices, reference.curvature)
    c = float(np.max(q1 if m == 1 else q2))

    grid = reference.grid
    if phiL == phi0:
        w_minus = np.full_like(grid, float(phiL))
        dphi = np.zeros_like(grid)
        gap = np.zeros_like(grid)
    else:
        w_minus, dphi, gap = build_phi(c, phi0, phiL, grid)
    with np.errstate(over="ignore"):  # an overflowing weight fails the boundary margins
        w_plus = w_minus[-1] + gap
    half_mass = 0.5 * matrices.mass
    q_diag = np.concatenate(
        [w_minus[:, None] * half_mass[None, :], w_plus[:, None] * half_mass[None, :]],
        axis=1,
    )
    cert = LyapunovCertificate(
        m=m,
        c=c,
        phi0=float(phi0),
        phiL=float(phiL),
        grid=grid,
        params=matrices.params,
        curvature=reference.curvature,
        dphi=dphi,
        gap=gap,
        w_minus=w_minus,
        w_plus=w_plus,
        q_diag=q_diag,
        q1=q1,
        q2=q2,
        reflection_bound=matrices.reflection_bound,
    )
    return verify_certificate(cert, matrices, reference)


def _weighted_field(cert, matrices, reference, a: float, b: float) -> np.ndarray:
    """Per-node a phi' Lambda + b gap Theta, with Lambda = diag(M D, M D)."""
    theta = theta_matrix(matrices, reference.curvature)
    lam = np.tile(matrices.mass * matrices.speed, 2)
    out = b * cert.gap[:, None, None] * theta
    idx = np.arange(12)
    out[:, idx, idx] += a * cert.dphi[:, None] * lam[None, :]
    return out


def interior_matrices(
    cert: LyapunovCertificate, matrices: BeamMatrices, reference: PrecurvedReference
) -> np.ndarray:
    """Per-node symmetric matrices dQ/dx diag(-D, D) - Q B - B^T Q.

    Assembled through the structured identity
    dQ/dx diag(-D, D) = -phi'/2 Lambda  and  Q B + B^T Q = gap/2 Theta,
    so the analytic derivative and gap enter directly.  A dense product
    assembly would subtract near-equal weights and lose the (relatively
    thin, absolutely tiny) margin on stiff beams.
    """
    return _weighted_field(cert, matrices, reference, -0.5, -0.5)


def verify_certificate(
    cert: LyapunovCertificate, matrices: BeamMatrices, reference: PrecurvedReference
) -> LyapunovCertificate:
    """Eigenvalue margins of the boundary and interior matrix conditions.

    Returns ``cert`` with the five margin arrays and ``valid`` filled in;
    failed conditions are reported through them, never raised.  The
    interior matrix is eigensolved node by node; the two sufficient slacks
    min(|w-'|, |w+'|) - (w+ - w-) q_m for m = 1, 2 are reported alongside.

    The slacks use the bounds q_1, q_2 carried on ``cert``, so ``matrices``
    and ``reference`` must be the ones the certificate was built from; other
    parameters or another curvature raise :class:`ValidationError`.
    """
    if len(cert.grid) != len(reference.grid) or not np.allclose(
        cert.grid, reference.grid
    ):
        raise ValidationError(["certificate and reference grids differ"])
    if cert.params != matrices.params or not np.array_equal(
        cert.curvature, reference.curvature
    ):
        raise ValidationError(
            ["certificate was built from other beam parameters or another curvature"]
        )

    with np.errstate(all="ignore"):  # a non-finite margin fails the check below
        b0 = 0.5 * (cert.w_plus[0] * matrices.kappa**2 - cert.w_minus[0]) * matrices.mass
        bL = 0.5 * (cert.w_minus[-1] - cert.w_plus[-1]) * matrices.mass

    interior = interior_matrices(cert, matrices, reference)
    eigs = np.linalg.eigvalsh(interior)
    margins = eigs[:, -1]
    scale = np.abs(interior).sum(axis=2).max(axis=1)
    # strict negativity with a relative margin; a zero matrix (constant
    # weights) must fail, so the inequality is strict on both counts
    interior_ok = bool(np.all(margins < 0.0) and np.all(margins <= -MARGIN_RTOL * scale))

    bscale = max(np.abs(b0).max(), np.abs(bL).max(), 1e-300)
    boundary_ok = bool(
        np.all(b0 <= MARGIN_RTOL * bscale) and np.all(bL <= MARGIN_RTOL * bscale)
    )

    # dw-/dx = phi' and dw+/dx = -phi', so the minimum modulus is |phi'|;
    # w+ - w- = 2 gap, taken from the analytic product form
    min_dw = np.abs(cert.dphi)
    gap = 2.0 * cert.gap
    dominance = min_dw - gap * cert.q1
    weyl = min_dw - gap * cert.q2

    return replace(
        cert,
        boundary_margins_0=b0,
        boundary_margins_L=bL,
        interior_margins=margins,
        dominance_slack=dominance,
        weyl_slack=weyl,
        valid=boundary_ok and interior_ok,
    )


def sigma_matrices(
    cert: LyapunovCertificate, matrices: BeamMatrices, reference: PrecurvedReference
) -> np.ndarray:
    """Per-node -phi' Lambda + 2 (phi(L) - phi) Theta (the decay-rate field)."""
    return _weighted_field(cert, matrices, reference, -1.0, 2.0)


def lipschitz_bound(matrices: BeamMatrices) -> float:
    """Provable coefficient: ||Jac g(r)||_2 <= 2 sqrt(sum_i ||Gc_i||_2^2) |r|.

    g_i(r) = <r, Gc_i r>: the symmetrized ``matrices.quadratic`` conjugated
    with L and L^{-1}.
    """
    q = matrices.quadratic
    gp = 0.5 * (q + np.swapaxes(q, 1, 2))
    linv = matrices.from_char
    mixed = np.einsum("ij,jkl->ikl", matrices.to_char, gp)
    gc = np.einsum("jk,ijl,lm->ikm", linv, mixed, linv)
    norms = np.linalg.norm(gc, 2, axis=(1, 2))
    return float(2.0 * np.sqrt(np.sum(norms**2)))


def decay_rate_estimate(
    cert: LyapunovCertificate,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    delta: float,
) -> float:
    """Heuristic decay-rate lower estimate 0.5 C_Q (-C_S - 4 C_Q C_g delta).

    C_S is the largest eigenvalue of -phi' Lambda + 2 (phi(L) - phi) Theta
    over the grid (negative for a valid certificate), C_Q the max/min ratio
    of the diagonal of Q over the beam, and C_g the provable Lipschitz
    coefficient :func:`lipschitz_bound` of the nonlinearity per unit state
    magnitude.  C_g over-estimates the true coefficient, so for delta > 0
    the estimate errs on the conservative side; at delta = 0 it does not
    enter.  The result is clipped at zero; treat it as indicative, not
    proof-grade.
    """
    sig = sigma_matrices(cert, matrices, reference)
    c_s = float(np.linalg.eigvalsh(sig)[:, -1].max())
    c_q = float(cert.q_diag.max() / cert.q_diag.min())
    c_g = lipschitz_bound(matrices)
    return max(0.0, 0.5 * c_q * (-c_s - 4.0 * c_q * c_g * delta))


def certificate_to_csv(
    cert: LyapunovCertificate,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    alpha_estimate: float,
) -> str:
    """Report CSV: per-node margins plus a scalar summary block, all read from ``cert``."""
    margins = np.column_stack([
        cert.grid, cert.w_minus, cert.w_plus,
        cert.interior_margins, cert.dominance_slack, cert.weyl_slack,
    ])
    summary = [
        ("valid", int(cert.valid)),
        ("m", cert.m),
        ("C_kappa", cert.reflection_bound),
        ("C_q1", float(np.max(cert.q1))),
        ("C_q2", float(np.max(cert.q2))),
        ("phi0", cert.phi0),
        ("phiL", cert.phiL),
    ]
    summary += [(f"boundary0_eig_{i + 1}", v) for i, v in enumerate(cert.boundary_margins_0)]
    summary += [(f"boundaryL_eig_{i + 1}", v) for i, v in enumerate(cert.boundary_margins_L)]
    summary.append(("alpha_estimate_heuristic", alpha_estimate))
    header = ["x", "w_minus", "w_plus", "interior_max_eig", "dominance_slack", "weyl_slack"]
    return (
        "# certificate report\n" + csv_table(header, margins.tolist())
        + "\n# summary\n" + csv_table(["name", "value"], summary)
    )
