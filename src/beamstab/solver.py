"""Explicit upwind solver for the characteristic beam system.

Integrates

    dt r + diag(-D, D) dx r + B r = g(r)

on a uniform node grid with the feedback boundary conditions
r+(0) = kappa r-(0) and r-(L) = -r+(L).  Components 1..6 move left,
7..12 move right; each is differenced against its wind.  Advection and
the source -B r + g(r) are advanced together by Heun's two-stage method,
with the boundary relations re-imposed after every stage (incoming
characteristics overwritten, outgoing ones left to the interior update).
The shared time step comes from the largest speed, dt = cfl dx / max|D|,
and is shortened further when the coupling is stiff, so that dt rho(B) is
at most 1/4 (:func:`time_step`).

Each simulated state (the initial one, each Heun stage and each step's
result) has its lower-order terms formed once: y = L^{-1} r through
``model.to_physical``, the coupling product B r and the nonlinearity
g(r) = gbar(y) L^T.  The next step's first stage, the record (energies,
H1/H2 norms and the Lyapunov functional, which rebuilds dt r from the same
equation) and the ``on_record`` consumer all read them.  Every formula
keeps its operations in the same order, so the shared terms change no bit.

The first-order scheme is the default; `upwind2` reconstructs face values
with unlimited centered (Fromm) slopes and linearly extrapolated ghost
nodes at the ends.
A dissipative scheme is deliberate here: observed energy decay then
always under-reports, never fabricates, the continuous-level decay.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    BlowupDetected,
    CFLViolation,
    NonPositiveValues,
    ValidationError,
)
from .fd import diff1, diff2, trapezoid
from .model import (  # noqa: F401  g_diag: perfbench traces the name in this module
    PrecurvedReference,
    StateField,
    g_diag,
    g_diag_pair,
    gbar,
)
from .params import BeamMatrices
from .table import csv_table

__all__ = [
    "SimConfig",
    "Trajectory",
    "generate_initial_datum",
    "time_step",
    "round_trip_time",
    "simulate",
    "energies",
    "sobolev_norms",
    "lyapunov_value",
    "fit_decay",
    "trajectory_to_csv",
    "snapshot_to_csv",
]

# Largest accepted sim.n_cells.  At this size the certificate eigensolves
# its per-node 6x6 halves 512 nodes at a time and streams its report into
# its file, so under tracemalloc (started after import) certify on the
# helical preset peaks at 14.4 MB, most of it the certificate's own
# (N+1,) fields, and its resident peak is 46 MB.
MAX_CELLS = 2**16


@dataclass(frozen=True)
class SimConfig:
    n_cells: int = 128
    cfl: float = 0.9
    t_end: float = 1.0
    output_stride: int = 1
    scheme: str = "upwind1"          # upwind1 | upwind2
    blowup_threshold: float = 1e6
    step_cap: int = 10_000_000
    store_snapshots: bool = False

    def validate(self) -> "SimConfig":
        if not 16 <= self.n_cells <= MAX_CELLS:
            raise CFLViolation(f"n_cells must lie in [16, {MAX_CELLS}], got {self.n_cells}")
        if not (0.0 < self.cfl <= 0.95):
            raise CFLViolation(f"cfl must lie in (0, 0.95], got {self.cfl}")
        if not 0.0 < self.t_end < math.inf:
            raise CFLViolation(f"t_end must be finite and > 0, got {self.t_end}")
        if self.output_stride < 1:
            raise CFLViolation(f"output_stride must be >= 1, got {self.output_stride}")
        if self.scheme not in ("upwind1", "upwind2"):
            raise CFLViolation(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.blowup_threshold < math.inf:
            raise CFLViolation(
                f"blowup_threshold must be finite and > 0, got {self.blowup_threshold}"
            )
        return self


@dataclass
class Trajectory:
    """Recorded time series of one simulation."""

    config: SimConfig
    times: np.ndarray
    energy_phys: np.ndarray
    energy_char: np.ndarray
    lyap: np.ndarray | None
    h1: np.ndarray
    h2: np.ndarray | None
    trace_minus_0: np.ndarray     # r-(0, t), (R, 6); r+(0) = kappa r-(0) exactly
    trace_plus_L: np.ndarray      # r+(L, t); r-(L) = -r+(L) exactly
    final_state: StateField       # diagonal state at t_end
    snapshots: list[StateField]
    steps: int


def _boundary_residual(y0: StateField, matrices: BeamMatrices) -> float:
    """Order-0 compatibility residual of a physical datum.

    The larger of |v(L)|, the clamp, and |C^{-1} s(0) - mu v(0)|, the feedback.
    """
    vals = y0.values
    clamped = float(np.abs(vals[-1, :6]).max())
    cinv = 1.0 / matrices.flexibility
    feedback = float(np.abs(cinv * vals[0, 6:] - matrices.mu * vals[0, :6]).max())
    return max(clamped, feedback)


def _smooth_bump(xi: np.ndarray) -> np.ndarray:
    """C-infinity bump on [0, 1], peak value 1, all derivatives zero at the ends."""
    out = np.zeros_like(xi)
    interior = (xi > 0.0) & (xi < 1.0)
    z = xi[interior]
    out[interior] = np.exp(1.0 - 0.25 / (z * (1.0 - z)))
    return out


@np.errstate(all="ignore")  # a grid too fine for double precision is reported below
def generate_initial_datum(
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    amplitude: float,
    seed: int,
    order: int = 1,
) -> StateField:
    """Smooth pseudo-random datum satisfying the requested compatibility order.

    Components are cubic polynomials in x/L times a flat bump whose
    derivatives of all orders vanish at both ends.  Order 0 instead zeroes
    the velocities at x = L with a linear factor and adds a linear ramp to
    the strains so the feedback relation holds exactly at x = 0.  For
    order 1, two smooth boundary-layer corrections are added to the strain
    block so that the differentiated conditions hold exactly for the
    *discrete* one-sided stencils: s'(L) = 0 and s'(0) = (M / mu) v'(0).
    The result is scaled to the requested discrete H1 norm; both conditions
    survive scaling (they are linear, and the quadratic term vanishes at
    the ends regardless).  Amplitude 0 yields the zero field.
    """
    if not 0.0 <= amplitude < math.inf:
        raise ValidationError([f"amplitude must be finite and >= 0, got {amplitude!r}"])
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValidationError([f"seed must be an integer >= 0, got {seed!r}"])
    if order not in (0, 1):
        raise ValidationError([f"order must be 0 or 1, got {order!r}"])
    grid = reference.grid
    if amplitude == 0.0:
        return StateField(grid, "physical", np.zeros((len(grid), 12)), 0.0)
    length = grid[-1]
    xi = grid / length
    dx = float(grid[1] - grid[0])
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(12, 4))
    powers = np.stack([np.ones_like(xi), xi, xi**2, xi**3], axis=0)
    raw = (coeffs @ powers).T  # (N+1, 12)

    if order == 1:
        values = raw * _smooth_bump(xi)[:, None]
        width = 0.125 * length
        ramp0 = grid * np.exp(-((grid / width) ** 2))
        rampL = (grid - length) * np.exp(-(((length - grid) / width) ** 2))
        strains = values[:, 6:]
        strains += rampL[:, None] * (-diff1(strains, dx)[-1] / diff1(rampL, dx)[-1])
        target = matrices.mass / matrices.mu * diff1(values[:, :6], dx)[0]
        strains += ramp0[:, None] * ((target - diff1(strains, dx)[0]) / diff1(ramp0, dx)[0])
    else:
        values = raw.copy()
        values[:, :6] *= (1.0 - xi)[:, None]
        target0 = matrices.flexibility * (matrices.mu * values[0, :6])
        values[:, 6:] += (1.0 - xi)[:, None] * (target0 - values[0, 6:])[None, :]

    norm = sobolev_norms(values, dx, 1)
    if not 0.0 < norm < math.inf:
        raise ValidationError([f"datum H1 norm {norm} at dx = {dx:.3g}: params.length too small"])
    values *= amplitude / norm
    return StateField(grid, "physical", values, 0.0)


def _couple(reference: PrecurvedReference, r: np.ndarray) -> np.ndarray:
    """The coupling product B r, node by node."""
    return np.einsum("ij,nj->ni", reference.coupling_char, r)


def _terms(state: StateField, matrices: BeamMatrices, reference: PrecurvedReference) -> tuple:
    """The lower-order part of the equation at one diagonal state, formed once.

    Returns (r, physical, coupled, nonlinear): the values r, the physical
    state y = L^{-1} r, B r and g(r) = gbar(y) L^T.  Every reader of the
    state (a Heun stage, the record, the pose pass) reads these instead of
    forming them again.
    """
    physical = model.to_physical(state, matrices)
    nonlinear = gbar(matrices, physical.values) @ matrices.to_char.T
    return state.values, physical, _couple(reference, state.values), nonlinear


def _energies(
    r: np.ndarray, y: np.ndarray, dx: float, matrices: BeamMatrices
) -> tuple[float, float]:
    """Energies of a diagonal state r whose physical values y the caller holds."""
    e_p = float(trapezoid((y**2 * matrices.energy_phys).sum(axis=1), dx))
    e_d = float(trapezoid((r**2 * matrices.energy_char).sum(axis=1), dx))
    return e_p, e_d


def energies(state: StateField, matrices: BeamMatrices) -> tuple[float, float]:
    """Beam energy of a diagonal state by trapezoid quadrature, in both representations."""
    if state.repr != "diagonal":
        raise ValidationError(["energies expects a diagonal state"])
    dx = float(state.grid[1] - state.grid[0])
    return _energies(state.values, model.to_physical(state, matrices).values, dx, matrices)


def sobolev_norms(values: np.ndarray, dx: float, order: int = 1) -> float:
    """Discrete H1 or H2 norm of grid samples (N+1, d)."""
    total = (values**2).sum(axis=1) + (diff1(values, dx, axis=0) ** 2).sum(axis=1)
    if order == 2:
        total = total + (diff2(values, dx) ** 2).sum(axis=1)
    return math.sqrt(float(trapezoid(total, dx)))


def _pde_rhs(
    grad: np.ndarray, coupled: np.ndarray, nonlinear: np.ndarray, matrices: BeamMatrices
) -> np.ndarray:
    """Right side (-diag(-D, D) grad - B r) + g(r) of the characteristic system.

    ``grad`` is dx r from whichever stencil the caller uses: the upwind one
    when stepping, the shared centered one when reconstructing dt r.
    ``coupled`` and ``nonlinear`` are B r and g(r), or for the
    differentiated equation B dt r and the Jacobian of g applied to dt r.
    """
    out = -matrices.wave_speeds[None, :] * grad
    out -= coupled
    out += nonlinear
    return out


def _lyapunov(
    terms: tuple, dx: float, cert, matrices: BeamMatrices, reference: PrecurvedReference, k: int
) -> float:
    """The functional of :func:`lyapunov_value`, dt r read from the state's terms."""
    r, _, coupled, nonlinear = terms
    q = cert.q_diag
    total = float(trapezoid((r**2 * q).sum(axis=1), dx))
    rt = _pde_rhs(diff1(r, dx, axis=0), coupled, nonlinear, matrices)
    total += float(trapezoid((rt**2 * q).sum(axis=1), dx))
    if k == 2:
        jac = g_diag_pair(matrices, r, rt) + g_diag_pair(matrices, rt, r)
        rtt = _pde_rhs(diff1(rt, dx, axis=0), _couple(reference, rt), jac, matrices)
        total += float(trapezoid((rtt**2 * q).sum(axis=1), dx))
    return total


def lyapunov_value(
    state: StateField,
    cert,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    k: int = 1,
) -> float:
    """Weighted functional sum_{j<=k} int <dt^j r, Q(x) dt^j r> dx.

    Time derivatives are reconstructed from the PDE with the shared
    stencils; the j = 2 term applies the differentiated equation (with the
    exact Jacobian of the quadratic term) to the computed dt r.
    """
    if state.repr != "diagonal":
        raise ValidationError(["lyapunov_value expects a diagonal state"])
    if k not in (1, 2):
        raise ValidationError([f"k must be 1 or 2, got {k!r}"])
    dx = float(state.grid[1] - state.grid[0])
    return _lyapunov(_terms(state, matrices, reference), dx, cert, matrices, reference, k)


def _upwind_gradient(r: np.ndarray, dx: float, scheme: str) -> np.ndarray:
    """Wind-aware dx r: columns 0..5 left-moving, 6..11 right-moving."""
    out = np.empty_like(r)
    if scheme == "upwind1":
        out[1:, 6:] = (r[1:, 6:] - r[:-1, 6:]) / dx
        out[:-1, :6] = (r[1:, :6] - r[:-1, :6]) / dx
    else:
        # Upwind-biased face reconstruction with centered (Fromm) slopes and
        # linearly extrapolated ghost nodes.  The states here are smooth and
        # small, so no limiter: slope limiting at smooth extrema costs the
        # second-order convergence this scheme exists to provide.
        padded = np.empty((r.shape[0] + 2, r.shape[1]))
        padded[1:-1] = r
        padded[0] = 2.0 * r[0] - r[1]
        padded[-1] = 2.0 * r[-1] - r[-2]
        slope = (padded[2:] - padded[:-2]) / (2.0 * dx)
        # right-movers: faces F_{j+1/2} = r_j + dx/2 slope_j
        plus_face = padded[1:-1, 6:] + 0.5 * dx * slope[:, 6:]
        out[1:, 6:] = (plus_face[1:] - plus_face[:-1]) / dx
        # left-movers: faces F_{j-1/2} = r_j - dx/2 slope_j
        minus_face = padded[1:-1, :6] - 0.5 * dx * slope[:, :6]
        out[:-1, :6] = (minus_face[1:] - minus_face[:-1]) / dx
    # each family's inflow node has no upwind neighbour: a first-order
    # one-sided difference into the grid, in both schemes
    out[0, 6:] = (r[1, 6:] - r[0, 6:]) / dx
    out[-1, :6] = (r[-1, :6] - r[-2, :6]) / dx
    return out


def time_step(
    config: SimConfig, matrices: BeamMatrices, reference: PrecurvedReference
) -> tuple[float, int]:
    """(dt, n_steps): the fewest steps with dt <= cfl dx / max|D| and dt rho(B) <= 1/4.

    dx = L / n_cells, and rho(B) is the spectral radius of the reference's
    coupling.  The coupling's bound binds only for a stiff coupling: on
    the presets dt rho(B) is at most 0.035 (straight-steel).  Raises
    :class:`CFLViolation` for an invalid config or a run over ``step_cap``.
    """
    # largest dt rho(B): a stiff twist (helical at N = 32, curvature [1000, 0, 0])
    # decays over 2 s at 1/4, and its energy grows a millionfold at 1/2
    coupling_step = 0.25
    config.validate()
    dx = matrices.params.length / config.n_cells
    dt_transport = config.cfl * dx / float(np.abs(matrices.wave_speeds).max())
    rho = float(np.abs(np.linalg.eigvals(reference.coupling_char)).max())
    dt_max = coupling_step / rho if rho * dt_transport > coupling_step else dt_transport
    # a dt_max that underflows to 0 (a subnormal cfl) needs unboundedly many steps
    needed = config.t_end / dt_max if dt_max > 0.0 else math.inf
    n_steps = max(1, math.ceil(needed)) if needed < math.inf else needed
    if n_steps > config.step_cap:
        raise CFLViolation(
            f"run needs {n_steps:.4g} steps, sim.step_cap is {config.step_cap}: dt {dt_max:.3g} "
            f"from sim.cfl and the wave speeds, or from the coupling of reference.curvature "
            f"(spectral radius {rho:.3g})"
        )
    return config.t_end / n_steps, n_steps


def round_trip_time(params) -> float:
    """Time 2 L / sqrt(E / rho) for an extensional wave to cross the beam and back."""
    return 2.0 * params.length / math.sqrt(params.young / params.rho)


def simulate(
    config: SimConfig,
    matrices: BeamMatrices,
    reference: PrecurvedReference,
    y0: StateField,
    cert=None,
    lyap_order: int = 1,
    on_record=None,
) -> Trajectory:
    """Run the closed loop from a compatible physical datum.

    Records energies, discrete Sobolev norms, the outgoing boundary traces
    r-(0) and r+(L) and (when a certificate is supplied) the Lyapunov
    functional every ``output_stride`` steps plus the final state.  Each
    record's physical state y = L^{-1} r is also handed to ``on_record``,
    when given, as it is recorded; the solver never writes to a state it
    has handed on.  The record and ``on_record`` read the terms the step
    formed for the state (see the module docstring), so y, B r and g(r)
    are formed once per simulated state.  Raises :class:`BlowupDetected` as
    soon as any node magnitude crosses the configured threshold.
    """
    dt, n_steps = time_step(config, matrices, reference)
    if len(y0.grid) != config.n_cells + 1:
        raise ValidationError(
            [f"datum has {len(y0.grid) - 1} cells, config wants {config.n_cells}"]
        )
    if not math.isclose(y0.grid[-1], matrices.params.length, rel_tol=1e-12):
        raise ValidationError(
            [f"datum grid ends at {y0.grid[-1]!r}, the beam length is {matrices.params.length!r}"]
        )
    if y0.repr != "physical":
        raise ValidationError(["simulate expects a physical datum"])
    residual = _boundary_residual(y0, matrices)
    if residual > 1e-8:
        raise ValidationError([f"datum violates order-0 compatibility: residual {residual:.3g}"])
    if cert is not None and not np.all(np.isfinite(cert.q_diag)):
        raise ValidationError(["certificate weights overflow: lower certificate.phi0 or phiL"])

    grid = y0.grid
    dx = float(grid[1] - grid[0])

    def apply_bc(state: np.ndarray) -> None:
        state[0, 6:] = matrices.kappa * state[0, :6]
        state[-1, :6] = -state[-1, 6:]

    def terms(state: np.ndarray, t: float) -> tuple:
        return _terms(StateField(grid, "diagonal", state, t), matrices, reference)

    def rhs(now: tuple) -> np.ndarray:
        r, _, coupled, nonlinear = now
        grad = _upwind_gradient(r, dx, config.scheme)
        return _pde_rhs(grad, coupled, nonlinear, matrices)

    def heun(now: tuple, t: float) -> np.ndarray:
        """The state one step on; the stage's arrays are freed before the record."""
        r = now[0]
        f1 = rhs(now)
        r1 = r + dt * f1
        apply_bc(r1)
        f2 = rhs(terms(r1, t))
        out = r + 0.5 * dt * (f1 + f2)
        apply_bc(out)
        return out

    r = y0.values @ matrices.to_char.T
    apply_bc(r)

    # t = 0, every output_stride-th step and the last one
    n_records = 1 + -(-n_steps // config.output_stride)
    times, e_phys, e_char, lyap, h1, h2 = (np.empty(n_records) for _ in range(6))
    tr_m0, tr_pL = np.empty((n_records, 6)), np.empty((n_records, 6))
    snapshots: list[StateField] = []

    def record(step: int, now: tuple) -> None:
        k = -(-step // config.output_stride)  # the record's row
        t = step * dt
        r, physical, _, _ = now
        y = physical.values
        e_phys[k], e_char[k] = _energies(r, y, dx, matrices)
        times[k] = t
        h1[k] = sobolev_norms(y, dx, 1)
        if lyap_order == 2:
            h2[k] = sobolev_norms(y, dx, 2)
        if cert is not None:
            lyap[k] = _lyapunov(now, dx, cert, matrices, reference, lyap_order)
        tr_m0[k] = r[0, :6]
        tr_pL[k] = r[-1, 6:]
        if config.store_snapshots:
            snapshots.append(StateField(grid, "diagonal", r.copy(), t))
        if on_record is not None:
            on_record(physical)

    now = terms(r, 0.0)
    record(0, now)
    for step in range(1, n_steps + 1):
        r = heun(now, step * dt)
        peak = float(np.abs(r).max())
        if not np.isfinite(peak) or peak > config.blowup_threshold:
            raise BlowupDetected(step * dt, peak)
        now = terms(r, step * dt)
        if step % config.output_stride == 0 or step == n_steps:
            record(step, now)

    return Trajectory(
        config=config,
        times=times,
        energy_phys=e_phys,
        energy_char=e_char,
        lyap=lyap if cert is not None else None,
        h1=h1,
        h2=h2 if lyap_order == 2 else None,
        trace_minus_0=tr_m0,
        trace_plus_L=tr_pL,
        final_state=StateField(grid, "diagonal", r.copy(), n_steps * dt),
        snapshots=snapshots,
        steps=n_steps,
    )


def fit_decay(times, values, t_min: float = 0.0):
    """Log-linear decay fit after ``t_min``: returns (alpha, eta, r_squared).

    Fits log(values) = log(eta) - alpha t by least squares over samples
    with t >= t_min.  Raises :class:`NonPositiveValues` unless all fitted
    samples are positive; needs at least 10 of them.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = times >= t_min
    t = times[mask]
    v = values[mask]
    if len(t) < 10:
        raise ValidationError([f"need at least 10 samples after t_min, got {len(t)}"])
    if np.any(v <= 0.0):
        raise NonPositiveValues("decay fit requires positive values")
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(math.exp(intercept)), r2


def trajectory_to_csv(traj: Trajectory) -> str:
    """Time-series CSV headed by the run's own config echo.

    Boundary columns carry the outgoing traces r-(0) and r+(L); the
    incoming ones follow from the boundary relations exactly.
    """
    cfg = traj.config
    echo = dict(
        n_cells=cfg.n_cells,
        cfl=cfg.cfl,
        t_end=cfg.t_end,
        output_stride=cfg.output_stride,
        scheme=cfg.scheme,
        steps=traj.steps,
    )
    cols = ["t", "energy_phys", "energy_char", "lyapunov", "h1"]
    lyap = traj.lyap if traj.lyap is not None else np.full(len(traj.times), np.nan)
    series = [traj.times, traj.energy_phys, traj.energy_char, lyap, traj.h1]
    if traj.h2 is not None:
        cols.append("h2")
        series.append(traj.h2)
    cols += [f"out0_{i + 1}" for i in range(6)] + [f"outL_{i + 7}" for i in range(6)]
    series += [traj.trace_minus_0, traj.trace_plus_L]
    return "".join(f"# {key} = {value}\n" for key, value in echo.items()) + csv_table(
        cols, np.column_stack(series).tolist()
    )


def snapshot_to_csv(state: StateField, matrices: BeamMatrices) -> str:
    """One diagonal snapshot as CSV: x, the 12 characteristic and 12 physical components."""
    if state.repr != "diagonal":
        raise ValidationError(["snapshot_to_csv expects a diagonal state"])
    r = state.values
    y = model.to_physical(state, matrices).values
    cols = ["x"] + [f"r{i + 1}" for i in range(12)] + [f"y{i + 1}" for i in range(12)]
    rows = np.column_stack([state.grid, r, y]).tolist()
    return f"# t = {state.time:.17g}\n" + csv_table(cols, rows)
