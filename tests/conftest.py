import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from beamstab.model import curved_reference
from beamstab.params import BeamMatrices, BeamParams, derive_matrices
from beamstab.scenarios import PRESETS, build_reference


def with_reflection(matrices: BeamMatrices, kappa_diag: np.ndarray) -> BeamMatrices:
    """Copy of ``matrices`` with the boundary reflection replaced.

    Lets a test impose reflections that no (mu1, mu2) pair realizes,
    e.g. the transparent condition kappa = 0 on an arbitrary beam.
    """
    kappa_diag = np.array(kappa_diag, dtype=float)
    if kappa_diag.shape != (6,):
        raise ValueError("kappa_diag must be a 6-vector")
    if np.any(np.abs(kappa_diag) >= 1.0):
        raise ValueError("reflection entries must lie in (-1, 1)")
    return replace(matrices, kappa=kappa_diag)


def linear(matrices: BeamMatrices) -> BeamMatrices:
    """Copy of ``matrices`` whose quadratic nonlinearity is the zero tensor."""
    return replace(matrices, quadratic=np.zeros_like(matrices.quadratic))


def curved_cases(params, seed):
    """The helical preset, and three random curvatures on ``params``."""
    helical = PRESETS["helical"]
    cases = [(derive_matrices(helical.params), build_reference(helical))]
    matrices = derive_matrices(params)
    for curvature in np.random.default_rng(seed).normal(size=(3, 3)):
        cases.append((matrices, curved_reference(params, 40, curvature, matrices)))
    return cases


@pytest.fixture(scope="session")
def toy_params():
    return BeamParams(
        rho=1.0, area=1.0, young=4.0, shear=1.0, moment2=1.0, moment3=1.0,
        k1=1.0, k2=1.0, k3=1.0, length=1.0, mu1=np.sqrt(2.0), mu2=2.0,
    )


@pytest.fixture(scope="session")
def toy_matrices(toy_params):
    return derive_matrices(toy_params)


@pytest.fixture(scope="session")
def toy_reference(toy_params):
    return curved_reference(toy_params, 32, np.zeros(3))


@pytest.fixture(scope="session")
def asym_params():
    """Toy-scale beam with distinct section moments (breaks accidental symmetry)."""
    return BeamParams(
        rho=1.3, area=0.8, young=5.0, shear=1.7, moment2=0.6, moment3=1.9,
        k1=0.9, k2=0.8, k3=1.1, length=1.4, mu1=1.0, mu2=2.5,
    )


@pytest.fixture(scope="session")
def asym_matrices(asym_params):
    return derive_matrices(asym_params)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, timeout=300, **environ) -> subprocess.CompletedProcess:
    """Run ``python <args>`` in a fresh interpreter that imports beamstab from src/.

    Keyword arguments are set in the interpreter's environment.
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **environ)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def random_params(rng) -> BeamParams:
    """Log-uniform draw over a sane range, keeping matrix entries O(1e3)."""
    def lu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return BeamParams(
        rho=lu(0.1, 10.0), area=lu(0.1, 10.0), young=lu(0.5, 50.0), shear=lu(0.5, 50.0),
        moment2=lu(0.1, 10.0), moment3=lu(0.1, 10.0),
        k1=lu(0.5, 1.5), k2=lu(0.5, 1.5), k3=lu(0.5, 1.5),
        length=lu(0.5, 2.0), mu1=lu(0.1, 10.0), mu2=lu(0.1, 10.0),
    )
