import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamstab.errors import ValidationError
from beamstab.params import (
    BeamParams,
    derive_matrices,
    dump_matrices,
    feedback_reflection,
    optimal_feedback,
    reflection_bound,
)
from conftest import random_params, with_reflection

positive = st.floats(min_value=0.05, max_value=20.0)


def test_wave_speeds_toy(toy_matrices):
    # rho=1, a=1, E=4, G=1, k2=k3=1
    lam = toy_matrices.wave_speeds
    assert lam[6] == pytest.approx(2.0, abs=0)
    assert lam[7] == lam[8] == lam[9] == pytest.approx(1.0, abs=0)
    assert lam[10] == lam[11] == lam[6]
    assert np.allclose(lam[:6], -lam[6:], atol=0)


def test_validation_collects_all_fields():
    bad = BeamParams(
        rho=-1.0, area=0.0, young=4.0, shear=1.0, moment2=1.0, moment3=1.0,
        k1=1.0, k2=1.0, k3=1.0, length=1.0, mu1=np.nan, mu2=2.0,
    )
    with pytest.raises(ValidationError) as err:
        derive_matrices(bad)
    message = str(err.value)
    for name in ("rho", "area", "mu1"):
        assert name in message
    assert len(err.value.problems) == 3


def test_transparent_feedback_gives_zero_reflection():
    # a beam with equal diag(M D) blocks so mu1, mu2 can hit them exactly
    p = BeamParams(
        rho=1.0, area=1.0, young=1.0, shear=1.0, moment2=1.0, moment3=1.0,
        k1=0.5, k2=1.0, k3=1.0, length=1.0, mu1=1.0, mu2=1.0,
    )
    m = derive_matrices(p)
    b = m.mass * m.speed
    assert np.allclose(b, 1.0, atol=1e-14)
    assert np.allclose(m.kappa, 0.0, atol=1e-14)
    assert m.reflection_bound == 0.0


def test_reflection_bound_is_max_square():
    assert reflection_bound(np.array([0.5, -0.3, 0.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25, abs=0)


def test_flux_diagonalization_random_params():
    rng = np.random.default_rng(101)
    for _ in range(50):
        m = derive_matrices(random_params(rng))
        signed_speed = np.diag(m.wave_speeds)
        residual = np.abs(m.flux - m.from_char @ signed_speed @ m.to_char).max()
        assert residual < 1e-12
        assert np.abs(m.to_char @ m.from_char - np.eye(12)).max() < 1e-12


def test_energy_weight_identity_random_params():
    rng = np.random.default_rng(102)
    for _ in range(50):
        m = derive_matrices(random_params(rng))
        product = m.from_char.T @ np.diag(m.energy_phys) @ m.from_char
        half_mass = 0.5 * np.diag(np.concatenate([m.mass, m.mass]))
        assert np.abs(product - half_mass).max() < 1e-12
        assert np.abs(np.diag(m.energy_char) - product).max() < 1e-12


def test_reflection_strictly_inside_unit_interval():
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        md = np.exp(rng.uniform(-3, 3, size=6))
        mu = np.exp(rng.uniform(-3, 3, size=2))
        kd = feedback_reflection(md, np.repeat(mu, 3))
        assert np.all(np.abs(kd) < 1.0)


def test_optimal_feedback_equal_block():
    p = BeamParams(
        rho=2.0, area=1.0, young=2.0, shear=2.0, moment2=1.0, moment3=1.0,
        k1=0.5, k2=1.0, k3=1.0, length=1.0, mu1=9.0, mu2=9.0,
    )
    m = derive_matrices(p)
    b = m.mass * m.speed
    assert np.allclose(b[:3], b[0])
    mu1, mu2 = optimal_feedback(p)
    assert mu1 == pytest.approx(b[0], rel=1e-14)
    # with mu equal to the block value the reflection vanishes there
    kd = feedback_reflection(b, np.array([mu1] * 3 + [mu2] * 3))
    assert np.allclose(kd[:3], 0.0, atol=1e-14)


def test_optimal_feedback_toy_values(toy_params):
    # diag(M D) evaluates to (2, 1, 1, 2, 2, 2) for the toy constants
    m = derive_matrices(toy_params)
    b = m.mass * m.speed
    assert np.allclose(b, [2.0, 1.0, 1.0, 2.0, 2.0, 2.0], atol=1e-14)
    mu1, mu2 = optimal_feedback(toy_params)
    assert mu1 == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert mu2 == pytest.approx(2.0, rel=1e-14)


def _ckappa(md, mu1, mu2):
    return reflection_bound(feedback_reflection(md, np.array([mu1] * 3 + [mu2] * 3)))


def test_optimal_feedback_beats_log_grid(asym_params):
    m = derive_matrices(asym_params)
    b = m.mass * m.speed
    mu1, mu2 = optimal_feedback(asym_params)
    best = _ckappa(b, mu1, mu2)
    scale1 = np.sqrt(b[:3].min() * b[:3].max())
    scale2 = np.sqrt(b[3:].min() * b[3:].max())
    grid = np.logspace(-2, 2, 50)
    for g1 in grid:
        for g2 in grid:
            assert best <= _ckappa(b, scale1 * g1, scale2 * g2) + 1e-15


def test_optimal_feedback_is_stationary_on_refinement(asym_params):
    m = derive_matrices(asym_params)
    b = m.mass * m.speed
    mu1, mu2 = optimal_feedback(asym_params)
    best = _ckappa(b, mu1, mu2)
    for f1 in (0.999, 1.0, 1.001):
        for f2 in (0.999, 1.0, 1.001):
            assert best <= _ckappa(b, mu1 * f1, mu2 * f2) + 1e-15


def stresses_from_strains(matrices, s):
    """Internal forces and moments F = C^{-1} s for a 6-vector of strains."""
    return np.asarray(s, dtype=float) / matrices.flexibility


def test_stresses_from_strains(toy_matrices, asym_matrices):
    assert np.all(stresses_from_strains(toy_matrices, np.zeros(6)) == 0.0)
    e1 = np.eye(6)[0]
    expected = asym_matrices.stiff_force[0]
    assert stresses_from_strains(asym_matrices, e1)[0] == pytest.approx(expected, rel=1e-14)
    rng = np.random.default_rng(5)
    s = rng.normal(size=6)
    forces = stresses_from_strains(asym_matrices, s)
    assert np.abs(asym_matrices.flexibility * forces - s).max() < 1e-14


@settings(max_examples=30, deadline=None)
@given(kd=st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=6, max_size=6))
def test_with_reflection_roundtrip(toy_matrices, kd):
    m2 = with_reflection(toy_matrices, np.array(kd))
    assert np.allclose(m2.kappa, kd)
    assert m2.reflection_bound == pytest.approx(max(v * v for v in kd), abs=1e-15)


def test_with_reflection_rejects_unit_entries(toy_matrices):
    with pytest.raises(ValueError):
        with_reflection(toy_matrices, np.array([1.0, 0, 0, 0, 0, 0]))


def test_diagonal_fields_are_vectors(toy_matrices):
    m = toy_matrices
    for name, n in (("inertia", 3), ("stiff_force", 3), ("stiff_moment", 3), ("mass", 6),
                    ("flexibility", 6), ("speed", 6), ("kappa", 6), ("mu", 6),
                    ("wave_speeds", 12), ("energy_phys", 12), ("energy_char", 12)):
        assert getattr(m, name).shape == (n,), name
    assert np.array_equal(m.wave_speeds, np.concatenate([-m.speed, m.speed]))
    stored = {f.name for f in dataclasses.fields(m)}
    assert not stored & {"speed", "speed_signed", "char_weight", "reflection_bound"}


def test_dump_matrices_blocks(toy_matrices):
    text = dump_matrices(toy_matrices)
    for title in ("# mass (6x6)", "# flexibility (6x6)", "# flux (12x12)", "# kappa (6x6)",
                  "# energy_char (12x12)", "# wave_speeds"):
        assert title in text
    # labelled rows and 17-digit floats survive a parse
    line = next(ln for ln in text.splitlines() if ln.startswith("r1,"))
    values = [float(v) for v in line.split(",")[1:]]
    assert len(values) in (3, 6, 12)


def test_quadratic_rows_taken_once_per_matrices(asym_params):
    """The contraction operand is the tensor's (12, 144) view, built on first
    read and kept; a copy with another tensor builds its own, and it is not
    a field, so neither the dump nor the finiteness check sees it."""
    m = derive_matrices(asym_params)
    rows = m.quadratic_rows
    assert rows is m.quadratic_rows
    assert np.array_equal(rows, m.quadratic.transpose(1, 0, 2).reshape(12, 144))
    zero = dataclasses.replace(m, quadratic=np.zeros_like(m.quadratic))
    assert not zero.quadratic_rows.any()
    assert "quadratic_rows" not in {f.name for f in dataclasses.fields(m)}
    assert "quadratic" not in dump_matrices(m)
