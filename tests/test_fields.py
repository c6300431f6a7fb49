from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylit import fields as fd
from skylit import tape as tp
from tests.conftest import reference_corner_index, reference_from_function, traced_peak


@pytest.fixture
def sphere_bound():
    t = tp.Tape()
    scene = fd.SceneFields.default(resolution=64)
    return t, fd.BoundFields(t, scene)


def test_sphere_init_values(sphere_bound):
    _, bound = sphere_bound
    v = fd.sdf_eval(bound, np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.5]]))
    assert abs(v.data[0]) < 5e-3
    assert v.data[1] == pytest.approx(0.4, abs=5e-3)


@pytest.mark.parametrize("resolution", [2, 5, 64])
@pytest.mark.parametrize("name", ["two-sphere", "sphere-plane", "blocker"])
def test_from_function_matches_the_stacked_reference(name, resolution):
    # one x-slab per call against one call on every node: the same grid,
    # byte for byte, on each shipped scene
    from skylit.scenes import make_scene

    fn = make_scene(name, seed=0).sdf_np
    got = fd.SdfField.from_function(fn, resolution=resolution).grid
    assert got.tobytes() == reference_from_function(fn, resolution).tobytes()


def test_from_function_holds_one_slab_of_nodes():
    # the 64^3 grid (2.1 MB) and one slab's nodes and scene temporaries;
    # the stack of every node and the scene's per-primitive distances of
    # all of them peaked at 25.2 MB
    from skylit.scenes import make_scene

    fn = make_scene("two-sphere", seed=0).sdf_np
    field, peak = traced_peak(fd.SdfField.from_function, fn, 64)
    assert field.grid.shape == (64, 64, 64)
    assert peak <= 4 * 2**20, peak


def test_interpolation_matches_eight_corner_oracle():
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(5, 5, 5))
    t = tp.Tape()
    scene = fd.SceneFields(fd.SdfField(grid), fd.AlbedoField.constant_init(5))
    bound = fd.BoundFields(t, scene)
    pts = rng.uniform(-0.57, 0.57, size=(100, 3))  # inside the unit ball

    def oracle(p):
        u = (p + 1.0) / 2.0 * 4.0
        i = np.minimum(u.astype(int), 3)
        f = u - i
        total = 0.0
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    w = ((f[0] if a else 1 - f[0]) * (f[1] if b else 1 - f[1])
                         * (f[2] if c else 1 - f[2]))
                    total += w * grid[i[0] + a, i[1] + b, i[2] + c]
        return total

    got = fd.sdf_eval(bound, pts).data
    want = np.array([oracle(p) for p in pts])
    assert np.abs(got - want).max() < 1e-9


def test_outside_domain_takes_clamped_boundary_value():
    rng = np.random.default_rng(8)
    t = tp.Tape()
    scene = fd.SceneFields(fd.SdfField(rng.normal(size=(8, 8, 8))),
                           fd.AlbedoField(rng.normal(size=(8, 8, 8, 3))))
    bound = fd.BoundFields(t, scene)
    # beyond the unit ball: inside the [-1,1] grid cube, and beyond it
    far = np.array([[0.9, -0.8, 0.1], [1.8, 0.3, -0.2], [0.5, -2.5, 1.4]])
    assert np.all(np.linalg.norm(far, axis=1) > 1.0)
    boundary = np.clip(far, -1.0, 1.0)
    for x in (far, tp._lift(far)):
        for b in (boundary, tp._lift(boundary)):
            assert np.array_equal(fd.sdf_eval(bound, x).data,
                                  fd.sdf_eval(bound, b).data)
            assert np.array_equal(fd.albedo_eval(bound, x).data,
                                  fd.albedo_eval(bound, b).data)
    assert np.array_equal(scene.sdf.sdf_np(far), scene.sdf.sdf_np(boundary))
    assert np.array_equal(scene.sdf.sdf_np(far), fd.sdf_eval(bound, far).data)


def _oracle_16_corner(grid, u, wrap):
    """Loop-by-loop quadrilinear interpolation of one query."""
    ends, fracs = [], []
    for n, x, periodic in zip(grid.shape, u, wrap):
        if periodic:
            i = int(np.floor(x))
            ends.append((i % n, (i + 1) % n))
            fracs.append(x - i)
        else:
            x = min(max(x, 0.0), n - 1.0)
            i = min(int(np.floor(x)), n - 2)
            ends.append((i, i + 1))
            fracs.append(x - i)
    total = 0.0
    for c0 in (0, 1):
        for c1 in (0, 1):
            for c2 in (0, 1):
                for c3 in (0, 1):
                    w = 1.0
                    for c, f in zip((c0, c1, c2, c3), fracs):
                        w *= f if c else 1.0 - f
                    total += w * grid[ends[0][c0], ends[1][c1], ends[2][c2],
                                      ends[3][c3]]
    return total


def test_multilinear_4d_matches_16_corner_oracle_at_seams_and_poles():
    # the DDF layout: polar (clamped), azimuth (wrapped), twice
    rng = np.random.default_rng(9)
    grid = rng.normal(size=(4, 6, 3, 5))
    wrap = (False, True, False, True)
    n_q = 40
    theta = rng.uniform(0.0, np.pi, size=(2, n_q))
    phi = rng.uniform(-np.pi, np.pi, size=(2, n_q))
    # azimuths within 1e-9 of the seam at +-pi, on both sides and exactly on it
    phi[0, :8] = [np.pi - 1e-9, -np.pi + 1e-9, np.pi, -np.pi,
                  np.pi - 1e-10, -np.pi + 1e-10, np.pi - 1e-9, -np.pi]
    phi[1, 4:12] = phi[0, :8]
    # polar clamps: exactly at the poles and just beyond them
    theta[0, 8:14] = [0.0, np.pi, -1e-3, np.pi + 1e-3, 0.0, np.pi]
    theta[1, :6] = [np.pi, 0.0, np.pi + 1e-3, -1e-3, np.pi, 0.0]
    # +-inf on a clamped axis reads its end node, as a huge finite value does
    theta[0, 14:16] = [np.inf, -np.inf]
    theta[1, 6:8] = [-np.inf, np.inf]
    # queries 1 and 3 differ from 0 and 2 only across the first seam
    theta[:, [1, 3]] = theta[:, [0, 2]]
    phi[1, [1, 3]] = phi[1, [0, 2]]
    u = [theta[0] * (3 / np.pi), (phi[0] + np.pi) * (6 / (2 * np.pi)),
         theta[1] * (2 / np.pi), (phi[1] + np.pi) * (5 / (2 * np.pi))]

    got = fd.multilinear(tp._lift(grid), u, wrap).data
    want = [_oracle_16_corner(grid, [c[q] for c in u], wrap) for q in range(n_q)]
    assert np.abs(got - want).max() < 1e-12
    # the seam is continuous: both sides of +-pi give the same value
    assert abs(got[0] - got[1]) < 1e-8 and abs(got[2] - got[3]) < 1e-12
    line = tp._lift(np.array([0.0, 5.0, 1.0, 7.0, 2.0]))
    ends = fd.multilinear(line, [np.array([np.inf, 1e9, -np.inf, -1e9, np.nan])],
                          (False,)).data
    assert np.array_equal(ends[:4], [2.0, 2.0, 0.0, 0.0]) and np.isnan(ends[4])

    weights = rng.normal(size=n_q)

    def loss(t, pv):
        return tp.vsum(fd.multilinear(pv["grid"], u, wrap) * weights)

    # the value is linear in the grid, so a unit step is an exact central
    # difference; it keeps rounding far below the ~1e-9 weights that seam
    # queries give their far corners
    assert tp.gradient_check(loss, {"grid": grid}, h=1.0) < 1e-4
    t = tp.Tape()
    g = tp.backward(t, loss(t, {"grid": t.parameter("grid", grid)}))["grid"]
    # seam queries reach both the first and the last azimuth column
    assert np.any(g[:, 0]) and np.any(g[:, -1])
    assert np.any(g[..., 0]) and np.any(g[..., -1])


def _off_kinks(rng, lo, hi, size):
    """Cell coordinates in [lo, hi] at least 0.05 from any integer, where
    the interpolant is smooth across a central-difference probe."""
    x = rng.uniform(lo, hi, size=size)
    return np.floor(x) + np.clip(x - np.floor(x), 0.05, 0.95)


def test_multilinear_4d_coordinate_gradients_pass_gradient_check():
    # the DDF layout (clamp, wrap, clamp, wrap), differentiated in the grid
    # and in Var coordinates, some beyond the clamped ends and some wrapping
    # more than once
    rng = np.random.default_rng(10)
    grid = rng.normal(size=(4, 6, 3, 5))
    wrap = (False, True, False, True)
    n_q = 12
    coords = {f"u{j}": _off_kinks(rng, lo, hi, n_q)
              for j, (lo, hi) in enumerate([(-0.8, 3.8), (-7.0, 13.0),
                                            (-0.8, 2.8), (-6.0, 11.0)])}
    # queries on a clamped end: u = 0 and u = n - 1 on axes 0 and 2
    ends = [np.array([0.0, 3.0]), rng.uniform(0.1, 5.9, 2),
            np.array([2.0, 0.0]), rng.uniform(0.1, 4.9, 2)]
    weights = rng.normal(size=n_q + 2)

    def value(grid_var, u):
        return tp.vsum(fd.multilinear(grid_var, u, wrap) * weights)

    def loss(t, pv):
        # the end queries stay constants here: a central difference across
        # the clamp reads half the inner slope, not the tie subgradient
        return value(pv["grid"], [tp.concat([e, pv[f"u{j}"]], axis=0)
                                  for j, e in enumerate(ends)])

    assert tp.gradient_check(loss, {"grid": grid, **coords}) < 1e-6

    t = tp.Tape()
    u = [t.parameter(f"u{j}", np.concatenate([e, coords[f"u{j}"]]))
         for j, e in enumerate(ends)]
    g = tp.backward(t, value(t.parameter("grid", grid), u))
    # the clamp's tie rule gives an end coordinate gradient exactly 0, as
    # beyond the ends; every other query has a non-zero gradient to compare
    for j, n in enumerate(grid.shape):
        inside = (u[j].data > 0.0) & (u[j].data < n - 1) if not wrap[j] else True
        assert np.array_equal(g[f"u{j}"] != 0.0, np.broadcast_to(inside, n_q + 2))
    assert not np.any(g["u0"][:2]) and not np.any(g["u2"][:2])


def test_multilinear_coordinate_gradients_with_channels():
    rng = np.random.default_rng(11)
    grid_shape, wrap = (4, 5, 3, 2), (False, True, False)
    grid = rng.normal(size=grid_shape)
    n_q = 9
    coords = {f"u{j}": _off_kinks(rng, -0.8, n - 0.2, n_q)
              for j, n in enumerate(grid_shape[:len(wrap)])}
    weights = rng.normal(size=(n_q, 2))

    def loss(t, pv):
        u = [pv[f"u{j}"] for j in range(len(wrap))]
        return tp.vsum(fd.multilinear(pv["grid"], u, wrap) * weights)

    assert tp.gradient_check(loss, {"grid": grid, **coords}) < 1e-6
    t = tp.Tape()
    g = tp.backward(t, loss(t, {k: t.parameter(k, v)
                                for k, v in {"grid": grid, **coords}.items()}))
    assert all(np.any(g[k]) for k in g)


def test_multilinear_partials_take_no_coordinates_on_a_tape():
    # the partials' coordinate gradient would be a second derivative, which
    # nothing takes: sdf_normals passes plain points. Constant Vars pass.
    rng = np.random.default_rng(12)
    grid = rng.normal(size=(4, 5, 3))
    u = [rng.uniform(0.0, n - 1, 6) for n in grid.shape]
    t = tp.Tape()
    traced = [t.parameter(f"u{j}", uj) for j, uj in enumerate(u)]
    with pytest.raises(tp.TapeError):
        fd.multilinear(t.parameter("grid", grid), traced, fd.CLAMPED_3D,
                       spatial_grad=True)
    const = fd.multilinear(t.parameter("g2", grid), [tp._lift(uj) for uj in u],
                           fd.CLAMPED_3D, spatial_grad=True)
    plain = fd.multilinear(tp._lift(grid), u, fd.CLAMPED_3D, spatial_grad=True)
    assert np.array_equal(const.data, plain.data)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), wrap_bits=st.integers(0, 15), channels=st.booleans(),
       spatial_grad=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_multilinear_vjps_match_central_differences(k, wrap_bits, channels,
                                                    spatial_grad, seed):
    # the grid gradient of the value or of its partials, and the value's
    # coordinate gradient, against central differences of sum(out * upstream);
    # coordinates lie off the cell faces, some beyond the clamped ends (where
    # the value is flat) and some wrapping more than once
    rng = np.random.default_rng(seed)
    wrap = tuple(bool(wrap_bits >> j & 1) for j in range(k))
    shape = tuple(int(n) for n in rng.integers(2, 5, size=k)) + ((2,) if channels else ())
    grid = rng.normal(size=shape)
    n_q = 5
    coords = [_off_kinks(rng, -6.0, n + 5.0, n_q) if w else _off_kinks(rng, -0.8, n - 0.2, n_q)
              for n, w in zip(shape, wrap)]

    def out(grid, u):
        return fd.multilinear(tp._lift(grid), u, wrap, spatial_grad=spatial_grad).data

    upstream = rng.normal(size=out(grid, coords).shape)
    t = tp.Tape()
    g_var = t.parameter("grid", grid)
    u_vars = [t.parameter(f"u{j}", uj) for j, uj in enumerate(coords)]
    inputs = {"grid": grid}
    if spatial_grad:
        value = fd.multilinear(g_var, coords, wrap, spatial_grad=True)
    else:
        value = fd.multilinear(g_var, u_vars, wrap)
        inputs.update({f"u{j}": uj for j, uj in enumerate(coords)})
    grads = tp.backward(t, tp.vsum(value * upstream))

    def probe(name, j, step):
        bumped = {key: np.array(a, copy=True) for key, a in inputs.items()}
        bumped[name][j] += step
        u = [bumped.get(f"u{i}", uj) for i, uj in enumerate(coords)]
        return np.sum(out(bumped["grid"], u) * upstream)

    for name, base in inputs.items():
        # the output is linear in the grid, so a unit step is exact; within
        # a cell it is linear along each coordinate too
        h = 1.0 if name == "grid" else 1e-6
        numeric = np.empty(base.shape)
        for j in np.ndindex(base.shape):
            numeric[j] = (probe(name, j, h) - probe(name, j, -h)) / (2.0 * h)
        scale = 1.0 + np.abs(numeric).max()
        np.testing.assert_allclose(grads[name], numeric, rtol=1e-6, atol=1e-8 * scale,
                                   err_msg=name)


def test_grid_reads_at_nodes_return_node_values_bit_for_bit(monkeypatch):
    # integer coordinates, clamped ends and beyond them weigh each other
    # corner by exactly 0: multilinear and soft_visibility's depth read the
    # node's value itself, not a rounding of a blend with its neighbours
    from skylit import visibility as vz

    rng = np.random.default_rng(13)
    grid = rng.normal(size=(4, 6, 3, 5))
    n_q = 64
    nodes = [rng.integers(0, n, n_q) for n in grid.shape]
    u = [i.astype(np.float64) for i in nodes]
    for j in (0, 2):  # the clamped axes: their ends, and beyond them
        n = grid.shape[j]
        top, bottom = rng.random(n_q) < 0.25, rng.random(n_q) < 0.25
        u[j][top] = (n - 1) + rng.choice([0.0, 0.5, 1e9, np.inf], top.sum())
        u[j][bottom & ~top] = -rng.choice([0.0, 0.5, 1e9, np.inf], (bottom & ~top).sum())
        nodes[j] = np.where(top, n - 1, np.where(bottom & ~top, 0, nodes[j]))
    for j in (1, 3):  # the wrapped axes, some periods away, some past 2^31
        u[j] += grid.shape[j] * rng.choice([-1e12, -1.0, 0.0, 1.0, 1e12], n_q)
    want = grid[tuple(nodes)]
    got = fd.multilinear(tp._lift(grid), u, vz.DDF_WRAP).data
    assert np.array_equal(got, want)

    # soft_visibility at the same cell coordinates, on a trainable grid
    raws = []
    monkeypatch.setattr(vz._DirectionMap, "coords", lambda self: tuple(uj[:, None] for uj in u))
    depth = vz._depth
    monkeypatch.setattr(vz, "_depth", lambda raw: (raws.append(raw.copy()), depth(raw))[1])
    t = tp.Tape()
    bound = vz.BoundDdf(t, vz.DdfField(grid), vz.VisibilityParams.default())
    x = np.zeros((n_q, 1, 3))
    vz.soft_visibility(bound, x, np.array([[[0.0, 0.0, 1.0]]]))
    assert len(raws) == 1 and np.array_equal(raws[0].reshape(-1), want)


# floors beyond +-2^30 send a wrapped axis through the float remainder
_WRAPPED_EXTRAS = {
    "within": [],
    "at the guard": [2.0**30, -2.0**30, 2.0**30 + 0.5, -2.0**30 + 0.5],
    "past the guard above": [2.0**30 + 1.0],
    "past the guard below": [-2.0**30 - 0.5],
    "2^31": [2.0**31],  # one past int32, either side
    "-2^31 - 1": [-2.0**31 - 1.0],
    "far": [2.0**40 + 3.0, -1e300, 1e300],
    "non-finite": [np.nan, np.inf, -np.inf],
}


@pytest.mark.parametrize("extra", list(_WRAPPED_EXTRAS))
@pytest.mark.parametrize("shape, wrap", [
    ((24, 48, 48, 48), (False, True, False, True)),  # the DDF layout
    ((12,), (True,)),
    ((5, 7), (True, True)),
    ((5, 7, 3), (False, True)),  # a channel axis
    ((3, 4, 5), (True, False, True)),
    ((2, 3, 4, 5), (True, True, True, True)),
    ((2**16, 2**16), (True, False)),  # 2^32 entries: int64 indices
])
@pytest.mark.parametrize("broadcast", [False, True])
def test_corner_index_is_the_float_remainder_bit_for_bit(shape, wrap, extra, broadcast):
    # on every axis: nodes 0, n - 1, n and -1, -0.0, points several periods
    # away on both sides and random ones, then the extra values; broadcast
    # queries pair every coordinate on even axes with every one on odd axes
    rng = np.random.default_rng(len(shape))
    coords = []
    for j, n in enumerate(shape[:len(wrap)]):
        u = np.concatenate([[0.0, n - 1.0, float(n), -1.0, -0.0, 0.5, n - 0.5,
                             -0.5, 3 * n + 0.25, -5 * n - 0.75, 7.0 * n],
                            rng.uniform(-4 * n, 4 * n, 24), _WRAPPED_EXTRAS[extra]])
        coords.append(u.reshape((-1, 1) if j % 2 else (1, -1)) if broadcast else u)
    idx, fracs = fd._corner_index(shape, coords, wrap)
    want_idx, want_fracs = reference_corner_index(shape, coords, wrap)
    assert idx.dtype == want_idx.dtype == (np.int64 if shape[0] == 2**16 else np.int32)
    assert idx.shape == want_idx.shape and idx.tobytes() == want_idx.tobytes()
    assert [f.tobytes() for f in fracs] == [f.tobytes() for f in want_fracs]
    assert idx.min() >= 0 and idx.max() < np.prod(shape[:len(wrap)])


@pytest.mark.parametrize("shape, wrap", [((24, 48, 48, 48), (False, True, False, True)),
                                         ((12,), (True,))])
def test_corner_index_of_an_empty_query(shape, wrap):
    coords = [np.empty((0, 3)) for _ in wrap]
    idx, fracs = fd._corner_index(shape, coords, wrap)
    want_idx, want_fracs = reference_corner_index(shape, coords, wrap)
    assert idx.shape == want_idx.shape == (2 ** len(wrap), 0, 3)
    assert idx.dtype == want_idx.dtype
    assert all(f.shape == (0, 3) for f in fracs + want_fracs)


def test_normals_radial_on_sphere_init(sphere_bound):
    _, bound = sphere_bound
    n = fd.sdf_normals(bound, np.array([[0.3, 0.0, 0.0]]))
    assert np.allclose(n.data[0], [1.0, 0.0, 0.0], atol=1e-6)
    assert np.linalg.norm(n.data[0]) == pytest.approx(1.0, abs=1e-12)


def test_normals_match_finite_differences():
    rng = np.random.default_rng(1)
    grid = rng.normal(size=(9, 9, 9))
    t = tp.Tape()
    scene = fd.SceneFields(fd.SdfField(grid), fd.AlbedoField.constant_init(9))
    bound = fd.BoundFields(t, scene)
    pts = rng.uniform(-0.55, 0.55, size=(20, 3))
    # partials in cell units; the 9-node grid over [-1, 1] has 4 cells per unit
    analytic = fd.multilinear(bound.sdf_grid, fd.cell_coords(pts, 9),
                              fd.CLAMPED_3D, spatial_grad=True).data * 4.0
    h = 1e-6
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        num = (fd.sdf_eval(bound, pts + e).data
               - fd.sdf_eval(bound, pts - e).data) / (2 * h)
        assert np.abs(analytic[:, axis] - num).max() < 1e-6


def test_degenerate_gradient_falls_back_to_up():
    t = tp.Tape()
    scene = fd.SceneFields(fd.SdfField(np.zeros((4, 4, 4))),
                           fd.AlbedoField.constant_init(4))
    bound = fd.BoundFields(t, scene)
    n = fd.sdf_normals(bound, np.array([[0.0, 0.0, 0.0]]))
    assert np.allclose(n.data[0], [0.0, 0.0, 1.0])


def test_albedo_in_unit_interval():
    rng = np.random.default_rng(2)
    t = tp.Tape()
    scene = fd.SceneFields(
        fd.SdfField.sphere_init(8),
        fd.AlbedoField(rng.normal(size=(8, 8, 8, 3)) * 5.0),
    )
    bound = fd.BoundFields(t, scene)
    a = fd.albedo_eval(bound, rng.uniform(-0.5, 0.5, size=(50, 3)))
    assert np.all(a.data > 0.0) and np.all(a.data < 1.0)


def test_neus_weights_no_surface():
    t = tp.Tape()
    f = tp._lift(np.full((3, 6), 0.4))
    w, _ = fd.neus_weights(f, tp._lift(np.asarray(100.0)))
    assert np.all(w.data == 0.0)


def test_neus_alpha_opaque_crossing():
    f = tp._lift(np.array([[0.1, -0.1]]))
    w, _ = fd.neus_weights(f, tp._lift(np.asarray(100.0)))
    # logistic CDF oracle: (phi(10)-phi(-10))/phi(10)
    phi = lambda x: 1.0 / (1.0 + np.exp(-x))
    expect = (phi(10) - phi(-10)) / phi(10)
    assert w.data[0, 0] == pytest.approx(expect, abs=1e-12)
    assert w.data[0, 1] == 0.0  # last sample alpha is zero


def test_neus_shaded_mask_is_nonzero_alpha():
    # a plane at inv_s 5000, crossed straight down: far above it phi rounds
    # to 1 and deep below it to 0, so alpha is 0 at both ends; just past the
    # crossing an alpha of exactly 1 zeroes the transmittance, so weights
    # are 0 there while alpha is not, and those samples stay shaded
    sdf = fd.SdfField.from_function(lambda p: p[:, 2], resolution=8)
    bound = fd.BoundFields(None, fd.SceneFields(sdf, fd.AlbedoField.constant_init(2)),
                           trainable=False)
    t = np.linspace(0.05, 0.75, 29)
    pts = np.array([0.0, 0.0, 0.4]) - t[:, None] * np.array([0.0, 0.0, 1.0])
    f = tp.reshape(fd.sdf_eval(bound, pts), (1, -1))
    w, shaded = fd.neus_weights(f, tp._lift(np.asarray(5000.0)))
    phi = tp.sigmoid_np(f.data * 5000.0)
    alpha = np.maximum((phi[:, :-1] - phi[:, 1:]) / np.maximum(phi[:, :-1], 1e-7), 0.0)
    alpha = np.concatenate([alpha, np.zeros((1, 1))], axis=1)
    assert shaded.dtype == bool and np.array_equal(shaded, alpha != 0.0)
    behind = (w.data == 0.0) & (alpha > 0.0)
    assert np.count_nonzero(behind) >= 3 and np.all(shaded[behind])
    assert np.count_nonzero(~shaded[0, :10]) >= 3  # far above the plane
    assert not shaded[0, -1]
    # a NaN alpha stays shaded, so a non-finite SDF shows in the render
    _, shaded_nan = fd.neus_weights(tp._lift(np.array([[0.1, np.nan, -0.1]])),
                                    tp._lift(np.asarray(100.0)))
    assert shaded_nan.tolist() == [[True, True, False]]


def test_neus_weights_sum_below_one_random_fields():
    rng = np.random.default_rng(3)
    f = tp._lift(rng.normal(size=(100, 16)) * 0.2)
    w, _ = fd.neus_weights(f, tp._lift(np.asarray(30.0)))
    assert np.all(w.data >= 0.0)
    assert np.all(w.data.sum(axis=1) <= 1.0 + 1e-6)


def test_neus_duplicate_sample_invariant():
    inv_s = tp._lift(np.asarray(50.0))
    f = np.array([[0.3, 0.1, -0.2]])
    w_plain, _ = fd.neus_weights(tp._lift(f), inv_s)
    # duplicate the middle sample: its interval alpha is 0
    f_dup = np.array([[0.3, 0.1, 0.1, -0.2]])
    w_dup, _ = fd.neus_weights(tp._lift(f_dup), inv_s)
    assert np.allclose(
        [w_dup.data[0, 0], w_dup.data[0, 2]],
        [w_plain.data[0, 0], w_plain.data[0, 1]],
        atol=1e-12,
    )
    assert w_dup.data[0, 1] == 0.0


def test_weight_gradients_pass_gradient_check():
    rng = np.random.default_rng(4)
    samples = np.linspace(-0.6, 0.6, 7)[:, None] * np.array([[0.0, 0.0, 1.0]])

    def loss(t, pv):
        f = fd.multilinear(pv["grid"], fd.cell_coords(samples, 4),
                           fd.CLAMPED_3D)
        w, _ = fd.neus_weights(tp.reshape(f, (1, 7)), tp.exp(pv["log_inv_s"]))
        return tp.vsum(w * np.arange(7.0))

    err = tp.gradient_check(
        loss,
        {"grid": rng.normal(size=(4, 4, 4)) * 0.3,
         "log_inv_s": np.asarray(np.log(20.0))},
    )
    assert err < 1e-4


def test_expected_depth_basic_and_miss():
    w = tp._lift(np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]]))
    t_vals = np.array([[1.0, 3.0], [1.0, 3.0], [2.0, 3.0]])
    t_e, w_sum = fd.expected_depth(w, t_vals, np.array([9.0, 9.0, 9.0]))
    assert t_e.data[0] == pytest.approx(2.0)
    assert t_e.data[1] == pytest.approx(9.0)  # miss reports far bound
    assert t_e.data[2] == pytest.approx(2.0)
    assert np.allclose(w_sum.data, [1.0, 0.0, 1.0])


def test_sphere_trace_hits_init_sphere():
    scene = fd.SceneFields.default(resolution=64)
    res = fd.sphere_trace(scene.sdf, np.array([[0.0, 0.0, 0.5]]),
                          np.array([[0.0, 0.0, -1.0]]))
    assert res.hit[0]
    assert res.t[0] == pytest.approx(0.4, abs=0.01)
    assert res.converged[0]


def test_sphere_trace_escapes_upward():
    scene = fd.SceneFields.default(resolution=64)
    res = fd.sphere_trace(scene.sdf, np.array([[0.0, 0.0, 0.5]]),
                          np.array([[0.0, 0.0, 1.0]]))
    assert not res.hit[0]


def test_sphere_trace_matches_closed_form_two_spheres():
    from skylit.scenes import make_scene

    scene = make_scene("two-sphere")
    rng = np.random.default_rng(5)
    o = rng.normal(size=(300, 3))
    o /= np.linalg.norm(o, axis=1, keepdims=True)
    d = -o + 0.15 * rng.normal(size=(300, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    # march the scene's SDF alone: handed the scene itself, sphere_trace
    # answers from the closed form this test compares against
    res = fd.sphere_trace(SimpleNamespace(sdf_np=scene.sdf_np), o, d)
    t_true, prim_idx, hit_true = scene.intersect(o, d)
    agree = res.hit == hit_true
    assert agree.mean() > 0.99  # grazing rays may disagree
    both = res.hit & hit_true
    # tracing stops threshold/cos(incidence) short of the root: compare away
    # from grazing incidence where the 1e-3 bound is meaningful
    pts = o[both] + t_true[both, None] * d[both]
    normals, _, _ = scene.surface_info(prim_idx[both], pts)
    steep = np.sum(-d[both] * normals, axis=1) > 0.15
    assert np.abs(res.t[both][steep] - t_true[both][steep]).max() < 1e-3


def test_sphere_trace_solves_analytic_scene_in_closed_form():
    from skylit.scenes import make_scene

    scene = make_scene("two-sphere")
    rng = np.random.default_rng(7)
    o = rng.normal(size=(200, 3))
    o /= np.linalg.norm(o, axis=1, keepdims=True)
    d = -o + 0.3 * rng.normal(size=(200, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    # one origin inside a sphere: a hit at t = 0, as marching reports it
    o[0] = scene.primitives[0].center
    res = fd.sphere_trace(scene, o, d)
    t_true, _, hit_true = scene.intersect(o, d)
    t_exit = -2.0 * np.sum(o * d, axis=1)
    assert res.hit[0] and res.t[0] == 0.0
    assert np.array_equal(res.hit[1:], hit_true[1:])
    assert np.allclose(res.t[1:], np.where(hit_true, t_true, t_exit)[1:])
    assert res.converged.all()
    assert 0 < hit_true[1:].sum() < 199


def _broadcast_trace_batch():
    """Positions (P,1,3) on the unit sphere and Q inward directions (P,Q,3)
    each against the two-sphere scene: random ones, one origin 5e-5 outside
    a sphere (every ray hits at t = 0), and one on top whose rays stay in
    the plane x = 0, which passes both spheres (every ray misses)."""
    from skylit.scenes import make_scene

    scene = make_scene("two-sphere")
    rng = np.random.default_rng(9)
    pos = rng.normal(size=(5, 3))
    pos[:, 2] = np.abs(pos[:, 2])
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    dirs = -pos[:, None, :] + 0.3 * rng.normal(size=(5, 16, 3))
    near = scene.primitives[1]
    pos[3] = near.center + (near.radius + 5e-5) * np.array([0.0, 0.0, 1.0])
    pos[4] = [0.0, 0.0, 1.0]
    dirs[4] = 0.0
    dirs[4, :, 1] = np.linspace(-0.5, 0.5, 16)
    dirs[4, :, 2] = -1.0
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return scene, pos[:, None, :], dirs


@pytest.mark.parametrize("path", ["closed-form", "marching"])
def test_sphere_trace_broadcasts_origins_byte_for_byte(path):
    scene, pos, dirs = _broadcast_trace_batch()
    sdf_like = scene if path == "closed-form" else SimpleNamespace(sdf_np=scene.sdf_np)
    got = fd.sphere_trace(sdf_like, pos, dirs)
    flat = fd.sphere_trace(sdf_like, np.repeat(pos[:, 0], 16, axis=0),
                           dirs.reshape(-1, 3))
    for name in ("hit", "t", "converged"):
        a, b = getattr(got, name), getattr(flat, name)
        assert a.shape == (5, 16) and a.tobytes() == b.tobytes(), name
    assert got.hit[3].all() and (got.t[3] == 0.0).all()
    assert not got.hit[4].any()
    assert got.hit[:3].any() and not got.hit[:3].all()
    empty = fd.sphere_trace(sdf_like, pos[:0], dirs[:0])
    assert [getattr(empty, k).shape for k in ("hit", "t", "converged")] == [(0, 16)] * 3


def test_expected_depth_matches_trace_for_opaque_surface():
    scene = fd.SceneFields.default(resolution=64)
    scene.sdf.log_inv_s = np.asarray(np.log(200.0))
    t = tp.Tape()
    bound = fd.BoundFields(t, scene)
    rng = np.random.default_rng(6)
    origins = np.array([[0.0, 0.0, 0.6]])
    dirs = np.array([[0.0, 0.0, -1.0]])
    rs = fd.stratified_samples(origins, dirs, 96, rng, near=0.05)
    f = tp.reshape(fd.sdf_eval(bound, rs.positions.reshape(-1, 3)), rs.t.shape)
    w, _ = fd.neus_weights(f, bound.inv_s())
    t_e, _ = fd.expected_depth(w, rs.t, rs.far)
    trace = fd.sphere_trace(scene.sdf, origins, dirs)
    spacing = (rs.far[0] - 0.05) / 96
    assert abs(t_e.data[0] - trace.t[0]) < spacing
