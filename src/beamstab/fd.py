"""Finite-difference stencils shared by the model, solver and checks.

Second-order centered differences in the interior, second-order one-sided
at the first and last sample, on uniformly spaced data, and the trapezoid
rule.  ``diff1`` and ``cumulative_trapezoid`` work along a chosen axis;
``diff2`` and ``trapezoid`` along the first.
"""

from __future__ import annotations

import numpy as np


def diff1(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """First derivative of uniformly sampled data (2nd order)."""
    v = np.asarray(values, dtype=float)
    if v.shape[axis] < 3:
        raise ValueError("need at least 3 samples for the one-sided stencils")
    lead = (slice(None),) * (axis % v.ndim)

    def at(index):
        return v[lead + (index,)]

    out = np.empty_like(v)
    out[lead + (slice(1, -1),)] = (at(slice(2, None)) - at(slice(None, -2))) / (2.0 * h)
    out[lead + (0,)] = (-3.0 * at(0) + 4.0 * at(1) - at(2)) / (2.0 * h)
    out[lead + (-1,)] = (3.0 * at(-1) - 4.0 * at(-2) + at(-3)) / (2.0 * h)
    return out


def diff2(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative of uniformly sampled data along axis 0 (2nd order)."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] < 4:
        raise ValueError("need at least 4 samples for the one-sided stencils")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return out


def trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid-rule quadrature along axis 0 of uniformly spaced data."""
    v = np.asarray(values, dtype=float)
    return h * (v.sum(axis=0) - 0.5 * (v[0] + v[-1]))


def cumulative_trapezoid(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Running trapezoid integral of uniformly spaced data, 0 at the first sample."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.zeros_like(v)
    out[1:] = np.cumsum(0.5 * h * (v[1:] + v[:-1]), axis=0)
    return np.moveaxis(out, 0, axis)
