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
with c = q_m, plus the endpoint window
phi(L) in [phi(0), (1 + 1/C_kappa)/2 * phi(0)].  The generator

    phi(x) = phi(L) - exp(-2 c x) (1 - x/L) (phi(L) - phi(0))

satisfies all three strictly (its slack is exp(-2cx) (phiL - phi0) / L).

The reference curvature is constant, so the symmetric coupling Theta is
one matrix and q_1, q_2 are two numbers for the whole beam.  The interior
matrix at a node is -phi'/2 Lambda - gap/2 Theta with Lambda = diag(W, W),
W = M D and Theta = -[[0, X], [X, 0]]; under (u +- v)/sqrt(2) it becomes
diag(-phi'/2 W + gap/2 X, -phi'/2 W - gap/2 X), so its spectrum is the
union of the spectra of two 6x6 halves, and those are eigensolved: at
every node for the margins, and for the decay-rate field
-phi' Lambda + 2 gap Theta, whose largest eigenvalue over the grid is the
only number kept, only at the nodes whose Gershgorin bound reaches the
field's largest diagonal entry.  No other node can hold the maximum.  X
is formed once per verification and once per decay estimate and passed
to the helpers.  The halves are formed and solved ``table.ROW_BLOCK``
nodes at a time, the row sums and bounds one (N+1,) column at a time,
and the report is drawn as chunks of as many rows, so a certificate's
working memory is one block beside its own (N+1,) fields.  LAPACK solves
each matrix on its own, so neither the blocks nor the choice of nodes
changes a bit.  The analytic phi' and gap enter directly: subtracting
near-equal weights would lose the thin margin of stiff beams.  Two
sufficient per-node margins are reported alongside: a diagonal-dominance
slack built from q_1, the largest weighted absolute row sum of Theta, and
a Weyl-bound slack built from its largest eigenvalue via q_2.  Either
margin being positive implies the interior matrix is negative definite;
the eigensolve is the ground truth either way.  :func:`verify_certificate`
returns the certificate with these margins and its validity filled in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CkappaDegenerate, ValidationError, WindowViolation
from .model import PrecurvedReference, _strain_matrix
from .params import BeamMatrices, BeamParams
from .table import ROW_BLOCK, csv_chunks, csv_table

__all__ = [
    "LyapunovCertificate",
    "theta_matrix",
    "theta_functions",
    "build_phi",
    "phi_window",
    "build_certificate",
    "verify_certificate",
    "decay_rate_estimate",
    "certificate_csv_chunks",
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
    c: float                     # C_{q_m} = q_m
    phi0: float
    phiL: float
    grid: np.ndarray             # (N+1,)
    params: BeamParams           # parameters the bounds q_1, q_2 were computed from
    curvature: np.ndarray        # (3,) reference curvature of the same
    dphi: np.ndarray             # (N+1,) analytic derivative
    gap: np.ndarray              # (N+1,) analytic phi(L) - phi(x)
    w_minus: np.ndarray          # (N+1,)
    w_plus: np.ndarray           # (N+1,)
    q_diag: np.ndarray           # (N+1, 12) diagonal of Q(x)
    q1: float                    # row-sum bound q_1 of the coupling
    q2: float                    # eigenvalue bound q_2 of the coupling
    reflection_bound: float      # C_kappa used for the window
    boundary_margins_0: np.ndarray | None = None   # (6,) eigs of k^2 Q+(0) - Q-(0)
    boundary_margins_L: np.ndarray | None = None   # (6,) eigs of Q-(L) - Q+(L)
    interior_margins: np.ndarray | None = None     # (N+1,) largest interior eigenvalue
    dominance_slack: np.ndarray | None = None      # (N+1,)
    weyl_slack: np.ndarray | None = None           # (N+1,)
    valid: bool = False


def theta_matrix(matrices: BeamMatrices, curvature: np.ndarray) -> np.ndarray:
    """Symmetric indefinite coupling Theta = -[[0, X], [X, 0]], X = EDM + (EDM)^T."""
    x = _strain_matrix(curvature) * (matrices.mass * matrices.speed)
    x = x + x.T
    out = np.zeros((12, 12))
    out[:6, 6:] = -x
    out[6:, :6] = -x
    return out


def theta_functions(matrices: BeamMatrices, curvature: np.ndarray):
    """Row sums theta_1..theta_6 and the bounds q_1, q_2 of a curvature 3-vector.

    Returns (theta (6,), q1, q2) with q1, q2 floats.  The thetas are the
    absolute row sums of the off-diagonal block of Theta relative to the
    characteristic weights M_i lambda_{i+6}, and q1 is their maximum; q2
    uses the largest eigenvalue of Theta over the smallest of the six
    weights.
    """
    big = theta_matrix(matrices, curvature)
    weights = matrices.mass * matrices.speed
    theta = np.abs(big[:6, 6:]).sum(axis=1) / weights
    q1 = float(theta.max())
    q2 = float(np.linalg.eigvalsh(big)[-1] / weights.min())
    return theta, q1, q2


@np.errstate(all="ignore")  # overflow is reported by the generator check below
def build_phi(c: float, phi0: float, phiL: float, grid: np.ndarray):
    """Weight generator phi, its analytic derivative, and the analytic gap.

    phi(x) = phiL - exp(-2 c x) (1 - x/L) (phiL - phi0).  Requires
    0 < phi0 < phiL.  Returns (phi, dphi, gap) with gap = phiL - phi kept
    in product form; the three generator conditions are re-checked at every
    node on the analytic quantities.  The slack dphi - 2 c gap equals
    exp(-2 c x) (phiL - phi0) / L, a lower bound of phi' that equals it at
    x = L, and the check requires it to be at least the smallest normal
    double at every node: a subnormal phi' would put the interior margins
    in subnormal arithmetic, where they lose digits.
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
    ok = (phi > 0.0) & (dphi > 0.0) & (dphi < np.inf) & (slack >= np.finfo(float).tiny)
    if not np.all(ok):
        raise ValidationError(
            ["generator conditions failed: the slack exp(-2 c x) (phiL - phi0) / L falls "
             "below the smallest normal double, or phi' overflows "
             f"(2 c L = {alpha * length:.3g} at params.length = {length:.3g}; "
             "change certificate.phi0, certificate.phiL or params.length)"]
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
    # a subnormal phi0 would scale every weight, margin and eigenvalue into
    # subnormal arithmetic, where they lose digits
    tiny = float(np.finfo(float).tiny)
    if not tiny <= phi0 < np.inf:
        raise ValidationError([
            f"certificate.phi0 must be finite and at least the smallest normal double "
            f"{tiny!r}, got {phi0!r}"
        ])
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
    c = q1 if m == 1 else q2

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
    q_diag = np.empty((len(grid), 12))
    np.multiply(w_minus[:, None], half_mass, out=q_diag[:, :6])
    np.multiply(w_plus[:, None], half_mass, out=q_diag[:, 6:])
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


def _largest_of_halves(cert, matrices, block, a: float, b: float, nodes=slice(None)):
    """Largest eigenvalue of a phi' Lambda + b gap Theta at each of ``nodes``, ``ROW_BLOCK`` at a time.

    ``block`` is Theta's lower-left 6x6 block, -X.  The field is
    [[a phi' W, -b gap X], [-b gap X, a phi' W]], so its eigenvalues are
    those of the two 6x6 halves a phi' W -+ b gap X.  The halves of each
    block of nodes are formed and solved on their own; numpy's
    ``eigvalsh`` calls LAPACK once per matrix, so the blocks keep the bits
    of one batch.
    """
    dphi, gap = cert.dphi[nodes], cert.gap[nodes]
    signed = np.stack([block, -block])
    weights = matrices.mass * matrices.speed
    idx = np.arange(6)
    out = np.empty(len(dphi))
    for lo in range(0, len(dphi), ROW_BLOCK):
        hi = lo + ROW_BLOCK
        halves = (b * gap[lo:hi])[:, None, None, None] * signed
        halves[:, :, idx, idx] += (a * dphi[lo:hi, None] * weights)[:, None, :]
        out[lo:hi] = np.linalg.eigvalsh(halves)[..., -1].max(axis=1)
    return out


def _columns(cert, matrices, block, a: float, b: float):
    """The field's diagonal a phi' W_i and absolute off-diagonal row sums, one column i at a time.

    Yields six pairs of (N+1,) arrays.  Theta has a zero diagonal, so row i
    of the field sums to |a phi' W_i| + |b gap| sum_j |X_ij|.
    """
    sums = np.abs(block).sum(axis=1)
    scaled = a * cert.dphi
    spread = np.abs(b * cert.gap)
    for weight, total in zip(matrices.mass * matrices.speed, sums):
        yield scaled * weight, spread * total


def _row_scale(cert, matrices, block, a: float, b: float):
    """Per-node largest absolute row sum of a phi' Lambda + b gap Theta, (N+1,).

    ``np.maximum`` propagates a NaN row sum, as a max over the rows does.
    """
    scale = None
    for diag, off in _columns(cert, matrices, block, a, b):
        row = np.abs(diag, out=diag)
        row += off
        scale = row if scale is None else np.maximum(scale, row, out=scale)
    return scale


def verify_certificate(
    cert: LyapunovCertificate, matrices: BeamMatrices, reference: PrecurvedReference
) -> LyapunovCertificate:
    """Eigenvalue margins of the boundary and interior matrix conditions.

    Returns ``cert`` with the five margin arrays and ``valid`` filled in;
    failed conditions are reported through them, never raised.  The
    interior matrix -phi'/2 Lambda - gap/2 Theta is eigensolved as its two
    6x6 halves -phi'/2 W -+ gap/2 X; the two sufficient slacks
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

    block = theta_matrix(matrices, cert.curvature)[6:, :6]
    margins = _largest_of_halves(cert, matrices, block, -0.5, -0.5)
    scale = _row_scale(cert, matrices, block, -0.5, -0.5)
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


def _largest_decay_eigenvalue(cert: LyapunovCertificate, matrices: BeamMatrices) -> float:
    """Largest eigenvalue of -phi' Lambda + 2 gap Theta over the grid, solved where it can lie.

    By Gershgorin, every eigenvalue at a node lies below its bound
    max_i(diag_i + |2 gap| sum_j |X_ij|), and the largest eigenvalue of a
    symmetric matrix is at least each of its diagonal entries, so the
    maximum over the grid is at least diag.max().  A node whose bound lies
    below diag.max() by more than 1e-12 of the largest row sum cannot hold
    the maximum (the eigensolver errs by about 1e-15 of it) and is not
    solved; a NaN bound keeps its node.  The kept nodes' halves come from the
    same elementwise operations as in the full solve, numpy's ``eigvalsh``
    calls LAPACK once per matrix, and the maximum does not depend on order,
    so the result has the bits of the full solve.
    """
    block = theta_matrix(matrices, cert.curvature)[6:, :6]
    upper, tops, rows = None, [], []
    for diag, off in _columns(cert, matrices, block, -1.0, 2.0):
        tops.append(diag.max())
        rows.append((np.abs(diag) + off).max())
        diag += off
        upper = diag if upper is None else np.maximum(upper, diag, out=upper)
    keep = ~(upper < np.max(tops) - 1e-12 * np.max(rows))
    return float(_largest_of_halves(cert, matrices, block, -1.0, 2.0, keep).max())


def decay_rate_estimate(
    cert: LyapunovCertificate,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    delta: float,
) -> float:
    """Heuristic decay-rate lower estimate 0.5 C_Q (-C_S - 4 C_Q C_g delta).

    C_S is the largest eigenvalue of -phi' Lambda + 2 (phi(L) - phi) Theta
    over the grid (negative for a valid certificate) divided by phi(0):
    that field scales with the weights, and a rate must not depend on how
    they are normalised.  Only the nodes whose Gershgorin bound can reach
    the maximum are eigensolved (one of 8193 on the helical preset at
    N = 8192), and C_S keeps the bits of solving every node.  C_Q is the
    max/min ratio of the diagonal of Q over the beam, and C_g the provable
    Lipschitz coefficient :func:`lipschitz_bound` of the nonlinearity per
    unit state magnitude.  C_g over-estimates the true coefficient, so for delta > 0 the estimate
    errs on the conservative side; at delta = 0 it does not enter.  The
    result is clipped at zero; treat it as indicative, not proof-grade.
    """
    c_s = _largest_decay_eigenvalue(cert, matrices) / cert.phi0
    c_q = float(cert.q_diag.max() / cert.q_diag.min())
    c_g = lipschitz_bound(matrices)
    return max(0.0, 0.5 * c_q * (-c_s - 4.0 * c_q * c_g * delta))


def certificate_csv_chunks(cert: LyapunovCertificate, alpha_estimate: float):
    """The report CSV in chunks: its heading, per-node margins ``ROW_BLOCK`` rows at a time, the summary.

    Every value is read from ``cert``; the margin rows are stacked one block
    at a time as the chunks are drawn.
    """
    columns = (
        cert.grid, cert.w_minus, cert.w_plus,
        cert.interior_margins, cert.dominance_slack, cert.weyl_slack,
    )
    summary = [
        ("valid", int(cert.valid)),
        ("m", cert.m),
        ("C_kappa", cert.reflection_bound),
        ("C_q1", cert.q1),
        ("C_q2", cert.q2),
        ("phi0", cert.phi0),
        ("phiL", cert.phiL),
    ]
    summary += [(f"boundary0_eig_{i + 1}", v) for i, v in enumerate(cert.boundary_margins_0)]
    summary += [(f"boundaryL_eig_{i + 1}", v) for i, v in enumerate(cert.boundary_margins_L)]
    summary.append(("alpha_estimate_heuristic", alpha_estimate))
    header = ["x", "w_minus", "w_plus", "interior_max_eig", "dominance_slack", "weyl_slack"]
    blocks = (
        np.column_stack([c[lo : lo + ROW_BLOCK] for c in columns])
        for lo in range(0, len(cert.grid), ROW_BLOCK)
    )
    yield "# certificate report\n"
    yield from csv_chunks(header, blocks)
    yield "\n# summary\n" + csv_table(["name", "value"], summary)


def certificate_to_csv(
    cert: LyapunovCertificate,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    alpha_estimate: float,
) -> str:
    """Report CSV: the chunks of :func:`certificate_csv_chunks` joined into one text."""
    return "".join(certificate_csv_chunks(cert, alpha_estimate))
