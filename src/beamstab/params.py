"""Beam constants and every matrix derived from them.

The beam is uniform, isotropic and linear-elastic, so all coefficient
matrices are constant diagonal matrices built from a handful of scalars:
mass density, section area, elastic moduli, area moments and correction
factors.  From those we assemble

* the 6x6 mass matrix ``M`` and flexibility matrix ``C``,
* the positive wave-speed matrix ``D = (M C)^{-1/2}`` and the twelve
  signed speeds ``(-D, D)``,
* the characteristic transform ``L`` (and its inverse) that takes the
  physical state ``y = (velocities, strains)`` to Riemann invariants
  ``r = L y``, diagonalizing the flux matrix ``A = L^{-1} diag(-D, D) L``,
* the energy weights for both representations,
* the boundary reflection matrix ``kappa`` induced by the velocity
  feedback gains ``mu1, mu2`` applied at the controlled end ``x = 0``,
* the coefficient tensor ``quadratic`` of the model's one nonlinearity,
  the bilinear map of cross products gbar(y) = gbar_pair(y, y).

A diagonal matrix is stored as the 1-D array of its diagonal; only the
transforms ``L``, ``L^{-1}`` and the flux ``A`` are dense 12x12 arrays,
and ``quadratic`` is a dense (12, 12, 12) array with 48 nonzero entries.
Sizes are tiny and fixed; the one derived view, the (12, 144) operand of
the nonlinearity's contraction, is taken on first use and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .table import csv_table

__all__ = [
    "BeamParams",
    "BeamMatrices",
    "derive_matrices",
    "optimal_feedback",
    "feedback_reflection",
    "reflection_bound",
    "dump_matrices",
]


@dataclass(frozen=True)
class BeamParams:
    """Raw physical and geometric constants plus the feedback gains.

    Units: SI throughout (kg/m^3, m^2, Pa, m^4, m).  All fields must be
    strictly positive; the correction factors k1..k3 are dimensionless.
    """

    rho: float        # mass density
    area: float       # cross-section area
    young: float      # Young modulus E
    shear: float      # shear modulus G
    moment2: float    # area moment of inertia I2
    moment3: float    # area moment of inertia I3
    k1: float         # polar-moment correction factor
    k2: float         # shear correction factor (axis 2)
    k3: float         # shear correction factor (axis 3)
    length: float     # beam length
    mu1: float        # force feedback gain at x = 0
    mu2: float        # moment feedback gain at x = 0

    def validate(self) -> "BeamParams":
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value) or value <= 0.0:
                problems.append(f"{f.name} must be finite and > 0, got {value!r}")
        if problems:
            raise ValidationError(problems)
        return self


@dataclass(frozen=True)
class BeamMatrices:
    """All constant matrices derived from a :class:`BeamParams`.

    Diagonal matrices are stored as their diagonals.  ``wave_speeds``
    lists the twelve characteristic speeds with the fixed ordering:
    entries 1..6 negative (left-moving), 7..12 positive, and
    ``wave_speeds[i] = -wave_speeds[i+6]``.
    """

    params: BeamParams
    inertia: np.ndarray          # 3, diag of J
    stiff_force: np.ndarray      # 3, diag of S1 (shear/extension rigidity)
    stiff_moment: np.ndarray     # 3, diag of S2 (torsion/bending rigidity)
    mass: np.ndarray             # 6, diag of M
    flexibility: np.ndarray      # 6, diag of C
    wave_speeds: np.ndarray      # 12, (-D, D) with D = (M C)^{-1/2}
    to_char: np.ndarray          # 12x12, L with r = L y
    from_char: np.ndarray        # 12x12, L^{-1}
    flux: np.ndarray             # 12x12, A
    energy_phys: np.ndarray      # 12, diag of (M, C^{-1})
    energy_char: np.ndarray      # 12, diag of (L^{-1})^T diag(energy_phys) L^{-1} = (M, M) / 2
    mu: np.ndarray               # 6, diag of the feedback matrix
    kappa: np.ndarray            # 6, diag of the reflection matrix
    quadratic: np.ndarray        # 12x12x12, gbar_pair(u, v)_i = sum_jk Q[i, j, k] u_j v_k

    @property
    def speed(self) -> np.ndarray:
        """The six positive speeds, diag of D (a view of ``wave_speeds``)."""
        return self.wave_speeds[6:]

    @property
    def reflection_bound(self) -> float:
        """C_kappa = max_i kappa_i^2."""
        return reflection_bound(self.kappa)

    @cached_property
    def quadratic_rows(self) -> np.ndarray:
        """``quadratic`` as the (12, 144) matrix Q[j, (i, k)]: u @ it is sum_j u_j Q[i, j, k]."""
        return self.quadratic.transpose(1, 0, 2).reshape(12, 144)


def reflection_bound(kappa_diag: np.ndarray) -> float:
    """Largest squared entry of the diagonal reflection matrix."""
    return float(np.max(np.asarray(kappa_diag, dtype=float) ** 2))


def feedback_reflection(md_diag: np.ndarray, mu_diag: np.ndarray) -> np.ndarray:
    """Diagonal of (M D + mu)^{-1} (M D - mu) for diagonal inputs."""
    md = np.asarray(md_diag, dtype=float)
    mu = np.asarray(mu_diag, dtype=float)
    return (md - mu) / (md + mu)


def _quadratic_tensor(p: BeamParams, inertia, stiff_force, stiff_moment) -> np.ndarray:
    """Coefficients of the intrinsic nonlinearity (Hodges, AIAA J. 2003).

    Blocks y = (v, w, gamma, upsilon); the left factor of each cross
    product is read from u and the right one from v:
    g1 = -(w x v) - (S1 gamma) x upsilon / (rho A),
    g2 = -(rho w x (J w) + (S1 gamma) x gamma + (S2 upsilon) x upsilon) / (rho J),
    g3 = -(w x gamma) - (v x upsilon),  g4 = -(w x upsilon).
    """
    i, j, k = np.ogrid[:3, :3, :3]
    eps = (i - j) * (j - k) * (k - i) / 2.0     # Levi-Civita: (a x b)_i = eps_ijk a_j b_k
    v, w, gamma, upsilon = (slice(3 * b, 3 * b + 3) for b in range(4))
    rho_j = p.rho * inertia
    q = np.zeros((12, 12, 12))
    q[v, w, v] = q[gamma, w, gamma] = q[gamma, v, upsilon] = q[upsilon, w, upsilon] = -eps
    q[v, gamma, upsilon] = -eps * stiff_force[:, None] / (p.rho * p.area)
    q[w, w, w] = -eps * rho_j / rho_j[:, None, None]
    q[w, gamma, gamma] = -eps * stiff_force[:, None] / rho_j[:, None, None]
    q[w, upsilon, upsilon] = -eps * stiff_moment[:, None] / rho_j[:, None, None]
    return q


@np.errstate(all="ignore")  # overflow is reported by the finiteness check at the end
def derive_matrices(params: BeamParams) -> BeamMatrices:
    """Build every derived matrix for a validated parameter set.

    Raises :class:`ValidationError` naming each non-positive field, or
    the derived matrices that overflow double precision.
    """
    params.validate()
    p = params

    inertia = np.array([(p.moment2 + p.moment3) * p.k1, p.moment2, p.moment3])
    stiff_force = p.area * np.array([p.young, p.k2 * p.shear, p.k3 * p.shear])
    stiff_moment = inertia * np.array([p.shear, p.young, p.young])

    mass = p.rho * np.concatenate([p.area * np.ones(3), inertia])
    flexibility = 1.0 / np.concatenate([stiff_force, stiff_moment])

    speed = 1.0 / np.sqrt(mass * flexibility)
    wave_speeds = np.concatenate([-speed, speed])

    eye6 = np.eye(6)
    to_char = np.block([[eye6, np.diag(speed)], [eye6, -np.diag(speed)]])
    inv_speed = np.diag(1.0 / speed)
    from_char = 0.5 * np.block([[eye6, eye6], [inv_speed, -inv_speed]])

    zeros6 = np.zeros((6, 6))
    flux = np.block([
        [zeros6, -np.diag(1.0 / (mass * flexibility))],
        [-eye6, zeros6],
    ])

    mu = np.array([p.mu1, p.mu1, p.mu1, p.mu2, p.mu2, p.mu2])
    matrices = BeamMatrices(
        params=params,
        inertia=inertia,
        stiff_force=stiff_force,
        stiff_moment=stiff_moment,
        mass=mass,
        flexibility=flexibility,
        wave_speeds=wave_speeds,
        to_char=to_char,
        from_char=from_char,
        flux=flux,
        energy_phys=np.concatenate([mass, 1.0 / flexibility]),
        energy_char=0.5 * np.concatenate([mass, mass]),
        mu=mu,
        kappa=feedback_reflection(mass * speed, mu),
        quadratic=_quadratic_tensor(p, inertia, stiff_force, stiff_moment),
    )
    overflowed = [f.name for f in fields(matrices) if f.name != "params"
                  and not np.all(np.isfinite(getattr(matrices, f.name)))]
    if overflowed:
        raise ValidationError(
            [f"params overflow double precision: {', '.join(overflowed)} not finite"]
        )
    return matrices


def optimal_feedback(params: BeamParams) -> tuple[float, float]:
    """Gains minimizing the reflection bound C_kappa.

    With b = diag(M D), the minimizing pair is the geometric mean of the
    extreme entries within each 3-block:
    mu1 = sqrt(min(b_1..b_3) max(b_1..b_3)), mu2 likewise over b_4..b_6.
    Existing mu1/mu2 in ``params`` are ignored.
    """
    m = derive_matrices(params)
    b = m.mass * m.speed
    mu1 = float(np.sqrt(b[:3].min() * b[:3].max()))
    mu2 = float(np.sqrt(b[3:].min() * b[3:].max()))
    return mu1, mu2


_DUMP_BLOCKS = (
    "inertia", "stiff_force", "stiff_moment", "mass", "flexibility", "speed",
    "to_char", "from_char", "flux", "energy_phys", "energy_char", "kappa",
)


def dump_matrices(matrices: BeamMatrices) -> str:
    """All derived matrices as labelled CSV blocks, diagonals written out in full (debug aid)."""
    blocks = []
    for name in _DUMP_BLOCKS:
        mat = getattr(matrices, name)
        if mat.ndim == 1:
            mat = np.diag(mat)
        header = ["row"] + [f"c{j + 1}" for j in range(mat.shape[1])]
        rows = [(f"r{i + 1}", *row) for i, row in enumerate(mat.tolist())]
        blocks.append(f"# {name} ({mat.shape[0]}x{mat.shape[1]})\n" + csv_table(header, rows))
    speeds = [(i + 1, v) for i, v in enumerate(matrices.wave_speeds)]
    blocks.append("# wave_speeds\n" + csv_table(["index", "value"], speeds))
    scalars = [("reflection_bound", matrices.reflection_bound)]
    scalars += [(f"mu_{i + 1}", v) for i, v in enumerate(matrices.mu)]
    blocks.append("# scalars\n" + csv_table(["name", "value"], scalars))
    return "\n".join(blocks)
