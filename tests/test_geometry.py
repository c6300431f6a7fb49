import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylit import geometry as geo
from skylit import tape as tp
from skylit import visibility as vz
from tests.conftest import bind_ddf, exit_point, reference_vmf_sample_batch


def _exit(o, d):
    """Exit distance and exit point of ``ray_sphere_exit``."""
    t = geo.ray_sphere_exit(o, d).t
    return np.asarray(o) + t * np.asarray(d), t


def test_ray_sphere_exit_centered():
    s, t = _exit([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert t == pytest.approx(1.0)
    assert np.allclose(s, [0, 0, 1])


def test_ray_sphere_exit_offset():
    s, t = _exit([0.5, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert t == pytest.approx(0.5)
    assert np.allclose(s, [1, 0, 0])


def test_ray_sphere_exit_quadratic_oracle():
    s, t = _exit([0.0, 0.6, 0.0], [0.0, 0.0, 1.0])
    assert t == pytest.approx(0.8, abs=1e-12)  # 0.36 + 0.64 = 1
    assert np.allclose(s, [0.0, 0.6, 0.8], atol=1e-9)


def test_ray_sphere_exit_tangential_degenerate():
    s, t = _exit([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert t == 0.0
    assert np.allclose(s, [1.0, 0.0, 0.0])


def test_ray_sphere_exit_distance_matches_t():
    rng = np.random.default_rng(1)
    for _ in range(200):
        o = rng.normal(size=3)
        o = o / np.linalg.norm(o) * rng.uniform(0.0, 0.99)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        s, t = _exit(o, d)
        assert np.linalg.norm(s - o) == pytest.approx(t, abs=1e-9)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-9)


def test_ray_sphere_exit_roots_broadcast_outside_and_miss():
    # origins (2, 1, 3) against directions (1, 2, 3)
    o = np.array([[[0.0, 0.0, -2.0]], [[0.0, 0.6, 0.0]]])
    d = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]])
    q = geo.ray_sphere_exit(o, d)
    assert q.t.shape == q.root.shape == (2, 2)
    # from outside: the line enters at 1 and leaves at 3; the exit distance
    # is the entry, the smallest non-negative root
    assert (q.t_near[0, 0], q.t_far[0, 0], q.c[0, 0], q.t[0, 0]) == (1.0, 3.0, 3.0, 1.0)
    assert q.near[0, 0]
    # a line that misses has root 0
    assert q.root[0, 1] == 0.0
    # from inside: the far root, the near one behind the origin
    assert np.allclose(q.t[1], [0.8, 0.8]) and not np.any(q.near[1])
    assert np.allclose(q.t_near[1], -0.8) and np.array_equal(q.t[1], q.t_far[1])


def ddf_frames(s):
    """(N, 3, 3) frames in which the DDF reads directions at sphere points
    ``s``: row 0 is the x-axis (world-up x s, normalised; at the poles,
    (1, 0, 0) orthogonalised against s), row 1 is s and row 2 is x x s."""
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    x = np.cross(geo.WORLD_UP, s)
    x_sq = np.sum(x * x, axis=-1, keepdims=True)
    pole_x = np.array([1.0, 0.0, 0.0]) - s[:, :1] * s
    pole_x /= np.maximum(np.linalg.norm(pole_x, axis=-1, keepdims=True), 1e-12)
    x = np.where(x_sq < 1e-12, pole_x, x / np.sqrt(np.maximum(x_sq, 1e-24)))
    return np.stack([x, s, np.cross(x, s)], axis=1)


def _frame_cell_coords(s, d, shape):
    """The DDF's cell coordinates read through ``ddf_frames``."""
    n_ts, n_ps, n_td, n_pd = shape
    local = np.einsum("nij,nj->ni", ddf_frames(s), d)
    return np.stack([np.arccos(np.clip(s[:, 2], -1.0, 1.0)) * ((n_ts - 1) / np.pi),
                     (np.arctan2(s[:, 1], s[:, 0]) + np.pi) * (n_ps / (2.0 * np.pi)),
                     np.arccos(np.clip(-local[:, 1], -1.0, 1.0)) * ((n_td - 1) / (np.pi / 2.0)),
                     (np.arctan2(local[:, 2], local[:, 0]) + np.pi) * (n_pd / (2.0 * np.pi))])


def _direction_map(s, d, shape):
    """``visibility._DirectionMap`` of (..., 3) arrays s and d."""
    return vz._DirectionMap(np.moveaxis(s, -1, 0), np.moveaxis(d, -1, 0), shape)


def test_ddf_cell_coords_match_frame_construction():
    rng = np.random.default_rng(3)
    shape = (24, 48, 12, 24)
    s = rng.normal(size=(4000, 3))
    s[:500, :2] *= 1e-8                          # pole fallback
    s[500:1000, 1] = rng.uniform(-1e-9, 1e-9, 500) * np.abs(s[500:1000, 0])
    s[500:1000, 0] = -np.abs(s[500:1000, 0])     # azimuth of s near +-pi
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    s *= rng.uniform(0.98, 1.02, size=(4000, 1))  # on and just off the sphere
    d = rng.normal(size=(4000, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d = np.where(np.sum(d * s, axis=1, keepdims=True) > 0.0, -d, d)
    got = np.stack(_direction_map(s, d, shape).coords())
    want = _frame_cell_coords(s, d, shape)
    # the azimuths are periodic: compare across the seam in cells
    diff = got - want
    for j in (1, 3):
        diff[j] = (diff[j] + shape[j] / 2.0) % shape[j] - shape[j] / 2.0
    # the local azimuth is ill-conditioned near the local pole d = -s
    local_sin = np.linalg.norm(np.cross(s, d), axis=1) / np.linalg.norm(s, axis=1)
    diff[3, local_sin < 1e-6] = 0.0
    assert np.abs(diff).max() < 1e-9


def test_local_frame_pole_fallback():
    frames = ddf_frames([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.allclose(frames[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(frames[:, 1], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def test_local_frame_cross_product_oracle():
    frame = ddf_frames([1.0, 0.0, 0.0])[0]
    assert np.allclose(frame[0], [0, 1, 0])
    assert np.allclose(frame[1], [1, 0, 0])
    assert np.allclose(frame[2], [0, 0, -1])


def test_local_frame_orthonormal_many():
    rng = np.random.default_rng(2)
    s = rng.normal(size=(10_000, 3))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    frames = ddf_frames(s)
    eye = np.einsum("nij,nkj->nik", frames, frames)
    assert np.abs(eye - np.eye(3)).max() < 1e-9
    assert np.array_equal(frames[:, 1], s)
    assert np.all(np.linalg.det(frames) > 0.0)


def _assert_matches_central_differences(got, value, x, upstream, h, period=None):
    """``got`` against central differences of ``sum(value(x) * upstream)``
    in each entry of the array ``x``. Output rows with a non-zero ``period``
    (in cells) are differenced across their seam."""
    numeric = np.empty(x.shape)
    for j in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        diff = value(up) - value(down)
        if period is not None:
            p = np.where(period > 0, period, 1.0)
            diff = np.where(period > 0, (diff + p / 2) % p - p / 2, diff)
        numeric[j] = np.sum(diff * upstream) / (2.0 * h)
    scale = 1.0 + np.abs(numeric).max(initial=0.0)
    np.testing.assert_allclose(got, numeric, rtol=1e-5, atol=1e-6 * scale)


def _assert_node_vjps(fn, inputs, upstream, h):
    """Each input's gradient of ``sum(fn(*inputs) * upstream)`` from
    ``backward`` against central differences of the same sum."""
    t = tp.Tape()
    out = fn(*(t.parameter(f"x{i}", x) for i, x in enumerate(inputs)))
    grads = tp.backward(t, tp.vsum(out * upstream))
    for i, x in enumerate(inputs):
        def value(xi, i=i):
            return fn(*(tp._lift(xi if k == i else v) for k, v in enumerate(inputs))).data

        _assert_matches_central_differences(grads[f"x{i}"], value, x, upstream, h)


def _local_to_world(s, theta, phi):
    """Directions at polar angle ``theta`` from -s and azimuth ``phi`` in the
    DDF frame of s."""
    frames = ddf_frames(s / np.linalg.norm(s, axis=1, keepdims=True))
    local = np.stack([np.sin(theta) * np.cos(phi), -np.cos(theta),
                      np.sin(theta) * np.sin(phi)], axis=1)
    return np.einsum("nij,ni->nj", frames, local)


_DDF_SHAPE = (6, 10, 5, 8)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["generic", "pole", "seam_s", "seam_d", "clamp"]),
       seed=st.integers(0, 2**32 - 1))
def test_ddf_cell_coords_vjps_match_central_differences(kind, seed):
    rng = np.random.default_rng(seed)
    n = 2
    s = rng.normal(size=(n, 3))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    radius = rng.choice([1.0, rng.uniform(0.98, 1.02)])
    theta = rng.uniform(0.1, 1.4, n)   # clear of the local pole d = -s
    phi = rng.uniform(-np.pi, np.pi, n)
    upstream = rng.normal(size=(4, n))
    if kind == "pole":
        # |s_x|, |s_y| < 1e-7: the pole fallback, which the probes stay in;
        # the polar angle and azimuth of s are singular there
        s = np.stack([rng.uniform(-1e-7, 1e-7, n), rng.uniform(-1e-7, 1e-7, n),
                      rng.choice([-1.0, 1.0], n)], axis=1)
        upstream[:2] = 0.0
    elif kind == "seam_s":
        # the azimuth of s within 1e-9 of +-pi
        a = np.pi - rng.uniform(0.0, 1e-9, n) * rng.choice([-1.0, 1.0], n)
        z = rng.uniform(-0.9, 0.9, n)
        s = np.stack([np.sqrt(1 - z * z) * np.cos(a), np.sqrt(1 - z * z) * np.sin(a), z],
                     axis=1)
    elif kind == "seam_d":
        # the local azimuth within 1e-9 of +-pi
        phi = (np.pi - rng.uniform(0.0, 1e-9, n)) * rng.choice([-1.0, 1.0], n)
    elif kind == "clamp":
        # just off the sphere, the local polar angle reaches its clamp at
        # -(d . s) = 1 without d being parallel to s: probe both sides
        radius = rng.uniform(1.01, 1.05)
        cos = (1.0 + rng.uniform(1e-3, 1e-2, n) * np.array([-1.0, 1.0])) / radius
        theta = np.arccos(cos)
    s = s * radius
    d = _local_to_world(s, theta, phi)
    # the map's pullback of the coordinates' adjoints against central
    # differences of its coordinates; the directions get no gradient
    period = np.array([0.0, _DDF_SHAPE[1], 0.0, _DDF_SHAPE[3]])[:, None]
    got = np.stack(_direction_map(s, d, _DDF_SHAPE).pullback(upstream), axis=-1)
    _assert_matches_central_differences(
        got, lambda a: np.stack(_direction_map(a, d, _DDF_SHAPE).coords()), s,
        upstream, h=1e-7, period=period)
    if kind == "clamp":
        # beyond the clamp the local polar angle passes no gradient
        only_polar = np.zeros((4, n))
        only_polar[2] = 1.0
        g = np.stack(_direction_map(s, d, _DDF_SHAPE).pullback(only_polar), axis=-1)
        assert np.any(g[0]) and not np.any(g[1])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["generic", "outward", "saturated_high", "saturated_low"]),
       seed=st.integers(0, 2**32 - 1))
def test_ddf_eval_vjps_match_central_differences(kind, seed):
    # the grid and the sphere points s get gradients, the directions none
    rng = np.random.default_rng(seed)
    n = 3
    shape = (3, 4, 2, 4)
    s = rng.normal(size=(n, 3))
    s *= rng.uniform(0.98, 1.02, (n, 1)) / np.linalg.norm(s, axis=1, keepdims=True)
    # local polar angles clear of the local pole; outward ones lie past the
    # horizon, beyond the clamp at the last polar node, which passes s nothing
    theta = rng.uniform(1.7, 3.0, n) if kind == "outward" else rng.uniform(0.1, 1.4, n)
    d = _local_to_world(s, theta, rng.uniform(-np.pi, np.pi, n))
    if kind in ("generic", "outward"):
        grid = rng.normal(scale=2.0, size=shape)
    else:
        # every corner beyond +-28, so the sigmoid sits in its 1e-12 clamp
        sign = 1.0 if kind == "saturated_high" else -1.0
        grid = sign * rng.uniform(30.0, 40.0, size=shape)
    field = vz.DdfField(grid)

    def depth(grid_var, s_var):
        # ddf_eval reads only the field's shape and the grid
        bound = bind_ddf(field, None, grid_var, None)
        return vz.ddf_eval(bound, s_var, d)

    upstream = rng.normal(size=n)
    _assert_node_vjps(depth, [grid, s], upstream, h=1e-7)
    if kind.startswith("saturated"):
        # a clamped depth passes exactly nothing, to the grid or to s
        t = tp.Tape()
        gv, sv = t.parameter("grid", grid), t.parameter("s", s)
        out = depth(gv, sv)
        assert np.all(out.data == (2.0 - 2e-12 if kind == "saturated_high" else 2e-12))
        grads = tp.backward(t, tp.vsum(out * upstream))
        assert not np.any(grads["grid"]) and not np.any(grads["s"])


def _exit_s_and_t(x, d):
    s, t = exit_point(x, d)
    return tp.concat([s, tp.reshape(t, t.shape + (1,))], axis=-1)


@settings(max_examples=40, deadline=None)
@given(tangent=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_exit_point_vjps_match_central_differences(tangent, seed):
    # x (2, 1, 3) against d (1, 3, 3), as soft_visibility broadcasts them
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 1, 3))
    x_hat = x / np.linalg.norm(x, axis=-1, keepdims=True)
    d = rng.normal(size=(1, 3, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    if tangent:
        # near the surface, rays within a few degrees of its tangent plane
        x = x_hat * rng.uniform(0.99, 0.999)
        perp = d[0] - (d[0] @ x_hat[0, 0])[:, None] * x_hat[0, 0]
        perp /= np.linalg.norm(perp, axis=-1, keepdims=True)
        tilt = rng.uniform(-0.05, 0.05, size=(3, 1))
        d = (np.cos(tilt) * perp + np.sin(tilt) * x_hat[0, 0])[None]
    else:
        x = x_hat * rng.uniform(0.0, 0.95, size=(2, 1, 1))
    upstream = rng.normal(size=(2, 3, 4))
    # the directions are plain arrays: only x gets a gradient
    _assert_node_vjps(lambda a: _exit_s_and_t(a, d), [x], upstream, h=1e-7)


@pytest.mark.parametrize("level,count", [(0, 12), (1, 42), (2, 162), (3, 642)])
def test_icosphere_counts(level, count):
    ds = geo.icosphere_directions(level)
    assert ds.count == count
    assert np.allclose(np.linalg.norm(ds.directions, axis=1), 1.0, atol=1e-12)


def test_icosphere_level_bound():
    with pytest.raises(geo.ConfigError):
        geo.icosphere_directions(7)


def test_icosphere_directions_are_cached_and_read_only():
    ds = geo.icosphere_directions(2)
    assert geo.icosphere_directions(2) is ds
    with pytest.raises(ValueError):
        ds.directions[0, 0] = 0.0
    with pytest.raises(ValueError):
        ds.directions += 1.0


def test_icosphere_min_separation_level3():
    d = geo.icosphere_directions(3).directions
    gram = d @ d.T
    np.fill_diagonal(gram, -1.0)
    min_angle = np.degrees(np.arccos(gram.max()))
    assert min_angle > 4.0


def test_icosphere_no_duplicates():
    d = geo.icosphere_directions(2).directions
    gram = d @ d.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 1.0 - 1e-9


def test_so3_jitter_orthogonal_det_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = geo.so3_jitter(rng)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_so3_jitter_mean_symmetry():
    rng = np.random.default_rng(4)
    v = np.array([0.0, 0.0, 1.0])
    acc = np.zeros(3)
    n = 100_000
    for _ in range(n):
        acc += geo.so3_jitter(rng) @ v
    assert np.linalg.norm(acc / n) < 0.02


def test_vmf_concentration_limit():
    rng = np.random.default_rng(5)
    v = geo.vmf_sample_batch([0.0, 0.0, 1.0], 1e6, 100, rng)
    assert v.shape == (1, 100, 3)
    assert np.allclose(v, [0, 0, 1], atol=5e-3)


def test_vmf_mean_resultant_length():
    rng = np.random.default_rng(6)
    mean = geo.normalize([0.3, -0.4, 0.866])
    v = geo.vmf_sample_batch(mean, 20.0, 100_000, rng)[0]
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    mrl = np.linalg.norm(v.mean(axis=0))
    expected = 1.0 / np.tanh(20.0) - 1.0 / 20.0
    assert abs(mrl - expected) / expected < 0.02
    assert np.allclose(v.mean(axis=0) / mrl, mean, atol=0.01)


def test_vmf_rotates_each_row_to_its_own_mean():
    # the poles take the degenerate (no rotation axis) branch
    rng = np.random.default_rng(7)
    means = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.6, 0.0, -0.8],
                      [-0.36, 0.48, 0.8]])
    v = geo.vmf_sample_batch(means, 1e6, 50, rng)
    assert np.allclose(v, means[:, None, :], atol=5e-3)


class _FixedDraws:
    """An rng stand-in whose ``random`` returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, shape):
        return np.full(shape, self.values.pop(0))


VMF_MEANS = np.array([
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],        # the two degenerate branches
    [0.6, 0.0, -0.8], [0.0, -0.6, -0.8],      # one axis component exactly 0
    [1e-9, 0.0, 1.0], [0.0, 1e-9, -1.0],      # next to the poles
    [0.3, -0.4, 0.866], [-0.36, 0.48, -0.8], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_per", [1, 8, 128])
def test_vmf_sample_batch_matches_the_vector_form_byte_for_byte(seed, n_per):
    # tobytes, not array_equal: a -0.0 must match too
    rng = np.random.default_rng(seed)
    means = np.concatenate([VMF_MEANS, -geo.sample_sphere(rng, 24)])
    for kappa in (geo.VMF_KAPPA_MIN, 20.0, 1e6):
        got = geo.vmf_sample_batch(means, kappa, n_per, np.random.default_rng(seed))
        want = reference_vmf_sample_batch(means, kappa, n_per,
                                          np.random.default_rng(seed))
        assert got.shape == want.shape == (len(means), n_per, 3)
        assert got.tobytes() == want.tobytes()


def test_vmf_sample_batch_matches_the_vector_form_on_the_mode():
    # u next to 1 puts the sample on the mode (w = 1, r = 0), and an azimuth
    # in the third quadrant makes both of its horizontal components -0.0
    u, phi = 1.0 - 2.0**-53, 0.6
    got = geo.vmf_sample_batch(VMF_MEANS, 20.0, 3, _FixedDraws(u, phi))
    want = reference_vmf_sample_batch(VMF_MEANS, 20.0, 3, _FixedDraws(u, phi))
    assert np.signbit(got[0, :, :2]).all()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa", [0.0, -1.0, 1e-300, 1e-14])
def test_vmf_rejects_non_positive_concentration(kappa):
    # below the vmf_kappa config floor of 0.01. kappa = 0 would divide 0 by
    # 0 into NaN directions; at 1e-300 every sample would sit on the mean,
    # because e^{-2k} rounds to 1; near 1e-14 the polar angles fall onto a
    # few hundred values
    with pytest.raises(geo.ConfigError):
        geo.vmf_sample_batch([0.0, 0.0, 1.0], kappa, 4, np.random.default_rng(0))


def test_srgb_fixed_points_and_reference():
    assert geo.srgb(np.array([0.0]))[0] == 0.0
    assert geo.srgb(np.array([1.0]))[0] == pytest.approx(1.0)
    assert geo.srgb(np.array([0.5]))[0] == pytest.approx(0.73535698, abs=1e-6)


def test_srgb_monotone():
    x = np.linspace(0.0, 1.2, 512)
    y = geo.srgb(x)
    assert np.all(np.diff(y) >= 0.0)
    assert y.min() >= 0.0 and y.max() <= 1.0
