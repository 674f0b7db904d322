import numpy as np

from beamstab.fd import cumulative_trapezoid, diff1


def running_sum_oracle(values, h):
    """One sample at a time: out[0] = 0, out[k] = out[k-1] + h/2 (v[k] + v[k-1])."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    for k in range(1, len(v)):
        out[k] = out[k - 1] + 0.5 * h * (v[k] + v[k - 1])
    return out


def from_end_oracle(values, h):
    """Integral from the last sample along axis -2, one batch row and sample at a time."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    n = v.shape[-2]
    for b in np.ndindex(v.shape[:-2]):
        for j in range(n - 2, -1, -1):
            out[b][j] = out[b][j + 1] + 0.5 * h * (v[b][j] + v[b][j + 1])
    return out


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for shape in [(17,), (17, 3), (2, 5)]:
        values = rng.normal(size=shape)
        assert np.array_equal(cumulative_trapezoid(values, 0.37), running_sum_oracle(values, 0.37))


def test_reversed_along_axis_minus_two_with_batch_axis():
    # the clamp quadrature: int_x^L over (T, N+1, 3), N+1 along axis -2
    rng = np.random.default_rng(4)
    values = rng.normal(size=(5, 17, 3))
    got = cumulative_trapezoid(values[..., ::-1, :], 0.125, axis=-2)[..., ::-1, :]
    assert np.array_equal(got, from_end_oracle(values, 0.125))
    assert np.array_equal(got[0], from_end_oracle(values[0], 0.125))


def test_matches_the_three_inline_quadratures_it_replaced():
    rng = np.random.default_rng(5)
    h = 1.0 / 256

    # reference centerline: from x = 0
    tangents = rng.normal(size=(257, 3))
    out = np.zeros_like(tangents)
    out[1:] = np.cumsum(0.5 * h * (tangents[1:] + tangents[:-1]), axis=0)
    assert np.array_equal(cumulative_trapezoid(tangents, h), out)

    # clamp quadrature: from x = L, batched
    tangent = rng.normal(size=(4, 257, 3))
    seg = 0.5 * h * (tangent[..., 1:, :] + tangent[..., :-1, :])
    tail = np.zeros_like(tangent)
    tail[..., :-1, :] = np.cumsum(seg[..., ::-1, :], axis=-2)[..., ::-1, :]
    got = cumulative_trapezoid(tangent[..., ::-1, :], h, axis=-2)[..., ::-1, :]
    assert np.array_equal(got, tail)

    # centerline in time, from the initial shape p0
    vel = rng.normal(size=(9, 257, 3))
    p0 = rng.normal(size=(257, 3))
    dt = 0.0035
    p = np.empty_like(vel)
    p[0] = p0
    p[1:] = p0[None, :, :] + np.cumsum(0.5 * dt * (vel[1:] + vel[:-1]), axis=0)
    assert np.array_equal(p0 + cumulative_trapezoid(vel, dt), p)


def moved_axis_oracle(values, h, axis):
    """diff1's stencils on axis 0 of the data with ``axis`` moved to the front."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def test_diff1_along_any_axis_is_the_moved_axis_stencil():
    rng = np.random.default_rng(6)
    for shape in [(3,), (17, 12), (5, 17, 3), (4, 9, 3, 3)]:
        values = rng.normal(size=shape)
        for data in (values, np.swapaxes(values, 0, -1)):
            for axis in range(-data.ndim, data.ndim):
                if data.shape[axis] >= 3:
                    expected = moved_axis_oracle(data, 0.37, axis)
                    assert np.array_equal(diff1(data, 0.37, axis), expected)
