from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylit import fields as fd
from skylit import tape as tp
from skylit import train as tr
from skylit import visibility as vz
from skylit.geometry import (icosphere_directions, ray_sphere_exit, sample_sphere,
                             so3_jitter)
from skylit.scenes import make_scene
from tests.conftest import (bind_ddf, binary_visibility_oracle, chain_soft_visibility,
                            exit_point)


def bound_of(ddf, params=None, tape=None, trainable=False):
    t = tape or tp.Tape()
    return vz.BoundDdf(t, ddf, params or vz.VisibilityParams.default(),
                       trainable=trainable)


def test_ddf_range_fresh_field():
    bd = bound_of(vz.DdfField.zero_init((8, 16), (4, 8)))
    rng = np.random.default_rng(0)
    s = sample_sphere(rng, 64)
    out = vz.ddf_eval(bd, s, -s)
    assert np.all(out.data > 0.0) and np.all(out.data < 2.0)


def test_ddf_range_extreme_grid_values():
    grid = np.full((4, 8, 3, 6), 80.0)
    bd = bound_of(vz.DdfField(grid))
    out = vz.ddf_eval(bd, np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]]))
    assert np.all(out.data < 2.0)  # open interval by construction


def test_antipodal_frames_use_different_cells():
    # the same world direction at antipodal points lands in different local
    # coordinates, so perturbing one query's cells leaves the other unchanged
    rng = np.random.default_rng(1)
    grid = rng.normal(size=(8, 16, 6, 12))
    ddf = vz.DdfField(grid.copy())
    s = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    d = np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    bd = bound_of(ddf)
    base = vz.ddf_eval(bd, s, d).data.copy()
    t = tp.Tape()
    b2 = vz.BoundDdf(t, ddf, vz.VisibilityParams.default(), trainable=True)
    out = tp.vsum(vz.ddf_eval(b2, s[:1], d[:1]))
    touched = tp.backward(t, out)["ddf_grid"] != 0.0
    ddf.grid[touched] += 0.5
    after = vz.ddf_eval(bound_of(ddf), s, d).data
    assert after[0] != base[0]
    assert after[1] == base[1]


def test_ddf_eval_is_one_node_that_constants_do_not_record():
    # on a trainable grid one call adds one node, whose parents are the grid
    # and s when s is a Var; with constant inputs it records nothing and
    # gives the same values bit for bit
    rng = np.random.default_rng(23)
    ddf = vz.DdfField(rng.normal(scale=2.0, size=(8, 16, 6, 12)))
    s = sample_sphere(rng, 40)
    d = -s + rng.normal(scale=0.3, size=s.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d = np.where(np.sum(d * s, axis=1, keepdims=True) > 0.0, -d, d)
    for s_is_var in (False, True):
        t = tp.Tape()
        bd = bound_of(ddf, tape=t, trainable=True)
        s_in = t.parameter("s", s) if s_is_var else s
        before = len(t.nodes)
        out = vz.ddf_eval(bd, s_in, d)
        assert t.nodes[before:] == [out]
        parents = [p for p, _ in out.parents]
        assert len(parents) == 1 + s_is_var and parents[0] is bd.grid
        assert not s_is_var or parents[1] is s_in
    t = tp.Tape()
    const = vz.ddf_eval(bound_of(ddf, tape=t), s, d)
    assert const.parents == () and const.tape is None and not t.nodes
    assert np.array_equal(const.data, out.data)


def test_ddf_eval_broadcasts_s_against_d_bit_for_bit():
    # s of shape (1, 3) or (P, 1, 3) against d of shape (P, Q, 3) reads and
    # trains the grid exactly as s broadcast to d's shape does
    rng = np.random.default_rng(24)
    ddf = vz.DdfField(rng.normal(scale=2.0, size=(8, 16, 6, 12)))
    p, q = 5, 7
    s = sample_sphere(rng, p)
    d = -s[:, None] + rng.normal(scale=0.3, size=(p, q, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    upstream = rng.normal(size=(p, q))

    def value_and_grid_grad(s_in):
        t = tp.Tape()
        out = vz.ddf_eval(bound_of(ddf, tape=t, trainable=True), s_in, d)
        return out.data, tp.backward(t, tp.vsum(out * upstream))["ddf_grid"]

    for s_in in (s[:1], s[:, None]):
        got = value_and_grid_grad(s_in)
        want = value_and_grid_grad(np.broadcast_to(s_in, d.shape).copy())
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_visibility_params_init():
    p = vz.VisibilityParams.default()
    assert p.epsilon == pytest.approx(1.0, rel=1e-12)
    assert vz.ETA == 50.0


def test_soft_visibility_half_at_exact_threshold():
    ddf = vz.DdfField.zero_init((8, 16), (4, 8))
    x = np.array([[0.0, 0.0, 0.2]])
    d = np.array([[0.0, 0.0, 1.0]])
    t = tp.Tape()
    bd = bound_of(ddf, tape=t)
    s_var, t_var = exit_point(tp._lift(x), d)
    depth = vz.ddf_eval(bd, s_var, -d)
    # choose epsilon = (t - depth) exactly as floats: the sigmoid argument
    # then cancels to exactly zero and V = 0.5 exactly
    eps_exact = float(t_var.data[0] - depth.data[0])
    arg = (t_var - depth) - eps_exact
    v = 1.0 - tp.sigmoid(50.0 * arg)
    assert float(v.data[0]) == 0.5


def test_soft_visibility_lower_hemisphere_exactly_one():
    ddf = vz.DdfField.zero_init((8, 16), (4, 8))
    bd = bound_of(ddf)
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.4, 0.4, size=(16, 3))
    d = sample_sphere(rng, 8, max_z=-1e-6)
    # directions exactly on the horizon count as below it
    horizon = icosphere_directions(3).directions
    d = np.concatenate([d, horizon[horizon[:, 2] == 0.0]])
    v = vz.soft_visibility(bd, x[:, None, :], d[None, :, :])
    assert np.all(v.data == 1.0)


def test_soft_visibility_unoccluded_high():
    # spec example: f_DDF >= ||s-x|| with eps 0.1, eta 50 -> V > 0.99
    ddf = vz.DdfField(np.full((8, 16, 4, 8), 40.0))  # predicts depth ~2
    params = vz.VisibilityParams.default(epsilon=0.1)
    bd = bound_of(ddf, params)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.4, 0.4, size=(32, 3))
    d = sample_sphere(rng, 16, min_z=1e-3)
    v = vz.soft_visibility(bd, x[:, None, :], d[None, :, :])
    assert np.all(v.data > 0.99)


def test_soft_visibility_range_and_monotonicity():
    rng = np.random.default_rng(4)
    ddf = vz.DdfField(rng.normal(size=(8, 16, 6, 12)))
    x = rng.uniform(-0.5, 0.5, size=(1000, 3))
    d = sample_sphere(rng, 1000, min_z=1e-3)
    eps_values = (0.05, 0.3, 0.9)
    results = []
    for eps in eps_values:
        bd = bound_of(ddf, vz.VisibilityParams.default(epsilon=eps))
        v = vz.soft_visibility(bd, x[:, None, :], d[:, None, :]).data.reshape(-1)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        results.append(v)
    # monotone nondecreasing in epsilon, zero violations
    assert np.all(results[1] >= results[0])
    assert np.all(results[2] >= results[1])


def test_soft_visibility_eps_at_scene_diameter_everything_visible():
    rng = np.random.default_rng(5)
    ddf = vz.DdfField(rng.normal(size=(8, 16, 6, 12)) - 2.0)
    bd = bound_of(ddf, vz.VisibilityParams.default(epsilon=2.0))
    x = rng.uniform(-0.5, 0.5, size=(200, 3))
    d = sample_sphere(rng, 200, min_z=1e-3)
    v = vz.soft_visibility(bd, x[:, None, :], d[:, None, :])
    assert np.all(v.data > 0.99)


def test_soft_visibility_gradients():
    rng = np.random.default_rng(6)

    def loss(t, pv):
        bd = vz.BoundDdf.__new__(vz.BoundDdf)
        bd.field = vz.DdfField(pv["grid"].data)
        bd.grid = pv["grid"]
        bd.params = vz.VisibilityParams(eps_raw=pv["eraw"].data)
        bd.eps_raw = pv["eraw"]
        x = tp.reshape(pv["x"], (1, 1, 3))
        d = np.array([[[0.3, 0.2, 0.93], [-0.5, 0.1, 0.86]]])
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        v = vz.soft_visibility(bd, x, d)
        return tp.vsum(v * np.array([[1.0, 2.0]]))

    err = tp.gradient_check(
        loss,
        {"grid": rng.normal(size=(4, 8, 3, 6)) * 0.5, "eraw": np.asarray(0.2),
         "x": np.array([0.1, -0.2, 0.05])},
        h=1e-5,
    )
    assert err < 1e-4


def _constant_view(bound):
    """The binding ``render_rays`` reads under ``stop_grad_vis``: constant
    copies of ``bound``'s field and parameters."""
    return vz.BoundDdf(None, bound.field, bound.params, trainable=False)


def test_stop_gradient_blocks_visibility():
    # visibility read from constant copies: the same value bits, no node on
    # the tape, and zero grid and epsilon gradients
    rng = np.random.default_rng(7)
    grid0 = rng.normal(size=(4, 8, 3, 6))
    d = np.array([[[0.3, 0.2, 0.93]]])
    d = d / np.linalg.norm(d, axis=-1, keepdims=True)

    def loss_with(stop):
        t = tp.Tape()
        bd = vz.BoundDdf(t, vz.DdfField(grid0.copy()),
                         vz.VisibilityParams.default(epsilon=0.3),
                         trainable=True)
        x = t.parameter("x", np.array([[[0.1, -0.2, 0.05]]]))
        before = len(t.nodes)
        if stop:
            v = vz.soft_visibility(_constant_view(bd), x.data, d)
            assert len(t.nodes) == before and v.tape is None and v.parents == ()
        else:
            v = vz.soft_visibility(bd, x, d)
        # x's own term keeps the loss on the tape when v is a constant
        return v.data, tp.backward(t, tp.vsum(v * 3.0 + x[..., 0]))

    v_free, g_free = loss_with(False)
    v_stop, g_stop = loss_with(True)
    assert np.array_equal(v_stop, v_free)
    assert np.abs(g_free["ddf_grid"]).max() > 0.0 and g_free["vis_eps_raw"] != 0.0
    assert np.all(g_stop["ddf_grid"] == 0.0)
    assert np.all(g_stop["vis_eps_raw"] == 0.0)


def _train_queries(rng, whole_sphere=False):
    """A train step's visibility query: 128 termination points against the
    sky-side half of the jittered level-3 icosphere (or all of it)."""
    dirs = icosphere_directions(3).directions @ so3_jitter(rng).T
    if not whole_sphere:
        dirs = dirs[dirs[:, 2] > 0.0]
    else:
        dirs[:3, 2] = 0.0  # horizon directions, exactly visible
    return rng.uniform(-0.6, 0.6, size=(128, 1, 3)), dirs[None]


def _visibility_and_grads(vis_fn, grid, eps, x, d, upstream):
    t = tp.Tape()
    bd = vz.BoundDdf(t, vz.DdfField(grid), vz.VisibilityParams.default(epsilon=eps))
    v = vis_fn(bd, t.parameter("x", x), d)
    return v.data, tp.backward(t, tp.vsum(v * upstream))


@pytest.mark.parametrize("whole_sphere", [False, True])
def test_soft_visibility_matches_chain_oracle(whole_sphere):
    # the fused node against the composition of generic nodes it replaced:
    # values and the grid, epsilon and x gradients agree up to rounding
    rng = np.random.default_rng(21)
    x, d = _train_queries(rng, whole_sphere)
    grid = rng.normal(scale=2.0, size=(32, 64, 16, 32))
    upstream = rng.normal(size=(x.shape[0], d.shape[1]))
    got_v, got = _visibility_and_grads(vz.soft_visibility, grid, 0.3, x, d, upstream)
    want_v, want = _visibility_and_grads(chain_soft_visibility, grid, 0.3, x, d, upstream)
    assert 0.05 < np.mean(want_v) < 0.95  # neither all visible nor all occluded
    np.testing.assert_allclose(got_v, want_v, rtol=1e-12, atol=1e-15)
    assert set(got) == {"ddf_grid", "vis_eps_raw", "x"}
    for name in got:
        assert np.any(want[name])
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                   atol=1e-12 * np.abs(want[name]).max(), err_msg=name)


def test_soft_visibility_inference_records_nothing():
    # constant inputs, or the constant view of a trainable binding, give the
    # gradient path's values bit for bit with no parents, no tape and no
    # saved coefficients
    rng = np.random.default_rng(22)
    x, d = _train_queries(rng)
    ddf = vz.DdfField(rng.normal(scale=2.0, size=(8, 16, 6, 12)))
    t = tp.Tape()
    bd = bound_of(ddf, tape=t, trainable=True)
    x_var = t.parameter("x", x)
    v_grad = vz.soft_visibility(bd, x_var, d)
    assert v_grad.parents
    t_const = tp.Tape()
    v_const = vz.soft_visibility(bound_of(ddf, tape=t_const), x, d)
    assert not t_const.nodes
    before = len(t.nodes)
    v_stop = vz.soft_visibility(_constant_view(bd), x_var.data, d)
    assert len(t.nodes) == before
    for v in (v_const, v_stop):
        assert v.parents == () and v.tape is None
        assert np.array_equal(v.data, v_grad.data)
    # a loss that reads the constant view passes the grid and epsilon nothing
    grads = tp.backward(t, tp.vsum(v_stop * x_var[..., 0]))
    assert not np.any(grads["ddf_grid"]) and not np.any(grads["vis_eps_raw"])
    assert np.any(grads["x"])


def _draw_node_case(kind, rng):
    """x (2,1,3), d (1,3,3), grid and raw epsilon for ``kind``."""
    shape = (3, 4, 3, 4)
    grid = rng.normal(scale=2.0, size=shape)
    x = rng.normal(size=(2, 1, 3))
    x *= rng.uniform(0.0, 0.8, size=(2, 1, 1)) / np.linalg.norm(x, axis=-1, keepdims=True)
    d = rng.normal(size=(1, 3, 3))
    d[..., 2] = np.abs(d[..., 2]) + 0.1
    eps_raw = rng.normal(scale=0.5, size=())
    if kind == "pole":
        # x[0]'s first ray exits at the north pole s = +z, where the exit
        # point's azimuth is undefined and the DDF's local frame falls back;
        # a grid that does not vary with the position leaves v smooth there
        grid = np.broadcast_to(grid[:1, :1], shape).copy()
        d[0, 0] = np.array([0.0, 0.0, 1.0]) - x[0, 0]
    elif kind == "tangent":
        # near the surface, rays within a few degrees of its tangent plane
        x_hat = x[:1, :1] / np.linalg.norm(x[:1, :1])
        x_hat[..., 2] = np.clip(x_hat[..., 2], -0.5, 0.5)
        x_hat /= np.linalg.norm(x_hat)
        x = np.broadcast_to(x_hat, x.shape) * rng.uniform(0.99, 0.999, size=(2, 1, 1))
        up = np.array([0.0, 0.0, 1.0]) - x_hat[0, 0, 2] * x_hat[0, 0]
        up /= np.linalg.norm(up)
        side = np.cross(x_hat[0, 0], up)
        a = rng.uniform(-1.0, 1.0, size=(3, 1))
        tilt = rng.uniform(-0.05, 0.05, size=(3, 1))
        d = (np.cos(tilt) * (np.cos(a) * up + np.sin(a) * side)
             + np.sin(tilt) * x_hat[0, 0])[None]
    elif kind == "outside":
        # just outside the ball, below its equator, aimed inward: the
        # exit point is the near root, where the ray enters; short depths
        # and a small epsilon keep the sigmoid off its saturation
        x_hat = x / np.linalg.norm(x, axis=-1, keepdims=True)
        x_hat[..., 2] = -np.abs(x_hat[..., 2]) - 0.3
        x_hat /= np.linalg.norm(x_hat, axis=-1, keepdims=True)
        x = x_hat * rng.uniform(1.02, 1.1, size=(2, 1, 1))
        d = -x_hat[:1] + rng.normal(scale=0.2, size=(1, 3, 3))
        d[..., 2] = np.abs(d[..., 2]) + 0.05
        grid = rng.normal(-5.0, 0.5, size=shape)
        eps_raw = rng.normal(-5.0, 0.3, size=())
    elif kind == "saturated":
        # every corner beyond +-28: the depth sits in its 1e-12 clamp
        grid = rng.choice([-1.0, 1.0]) * rng.uniform(30.0, 40.0, size=shape)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return x, d, grid, eps_raw


def _node_case(kind, rng):
    """``_draw_node_case``, redrawn until every query's local polar angle,
    arccos(d . s) at its exit point s, is at least 1e-2 rad. Near 0, the
    DDF direction map's pole, central differences at h = 1e-7 lose about
    three digits; ``test_soft_visibility_vjps_near_the_direction_pole``
    checks one such query at a finer h."""
    while True:
        x, d, grid, eps_raw = _draw_node_case(kind, rng)
        s = x + ray_sphere_exit(x, d).t[..., None] * d
        if np.arccos(np.clip(np.sum(d * s, axis=-1), -1.0, 1.0)).min() >= 1e-2:
            return x, d, grid, eps_raw


def _node_value(x, grid, eps_raw, d):
    field = vz.DdfField(grid.data)
    return vz.soft_visibility(bind_ddf(field, None, grid, eps_raw), x, d)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["generic", "pole", "tangent", "outside", "saturated"]),
       seed=st.integers(0, 2**32 - 1))
def test_soft_visibility_node_vjps_match_central_differences(kind, seed):
    rng = np.random.default_rng(seed)
    _check_node_vjps(kind, rng, _node_case(kind, rng), h=1e-7)


def test_soft_visibility_vjps_near_the_direction_pole():
    # hypothesis's pole case at seed 222, drawn as it was before the redraw:
    # x[1] lies 3e-4 from the origin, so its queries look almost straight
    # in (local polar angle 2.3e-5 rad). At h = 1e-7 central differences
    # miss the x-gradient by a relative 6e-4; at 1e-9 they agree
    rng = np.random.default_rng(222)
    case = _draw_node_case("pole", rng)
    x, d = case[0], case[1]
    s = x[1] + ray_sphere_exit(x[1], d).t[..., None] * d
    assert np.arccos(np.clip(np.sum(d * s, axis=-1), -1.0, 1.0)).min() < 1e-4
    _check_node_vjps("pole", rng, case, h=1e-9)


def _check_node_vjps(kind, rng, case, h):
    # x, the grid and raw epsilon against central differences of
    # sum(v * upstream), upstream drawn from rng; the directions are plain
    # arrays
    x, d, grid, eps_raw = case
    assert np.all(d[..., 2] > 0.0)  # sky-side: none of v is pinned to 1
    upstream = rng.normal(size=(2, 3))
    inputs = {"x": x, "grid": grid, "eps_raw": eps_raw}
    t = tp.Tape()
    pv = {k: t.parameter(k, v) for k, v in inputs.items()}
    v = _node_value(pv["x"], pv["grid"], pv["eps_raw"], d)
    grads = tp.backward(t, tp.vsum(v * upstream))
    if kind == "pole":
        s_pole = x[0, 0] + ray_sphere_exit(x[0, 0], d[0, 0]).t * d[0, 0]
        assert np.hypot(s_pole[0], s_pole[1]) < 1e-12
    for name, base in inputs.items():
        numeric = np.empty(base.shape)
        for j in np.ndindex(base.shape):
            sums = []
            for sign in (1.0, -1.0):
                bumped = {k: np.array(a, copy=True) for k, a in inputs.items()}
                bumped[name][j] += sign * h
                out = _node_value(*(tp._lift(bumped[k]) for k in inputs), d)
                sums.append(np.sum(out.data * upstream))
            numeric[j] = (sums[0] - sums[1]) / (2.0 * h)
        scale = 1.0 + np.abs(numeric).max()
        np.testing.assert_allclose(grads[name], numeric, rtol=1e-5, atol=1e-6 * scale,
                                   err_msg=name)
    if kind == "saturated":
        # a clamped depth passes the grid exactly nothing
        assert not np.any(grads["grid"])


def test_soft_visibility_horizon_and_below_is_one_with_zero_gradient():
    # d_z = 0 exactly and d_z < 0 (one ray exits at the south pole): v is
    # exactly 1 and no slot gets any gradient
    rng = np.random.default_rng(23)
    x = np.array([[[0.1, -0.2, 0.3]], [[0.0, 0.0, 0.5]]])
    d = np.array([[[1.0, 0.0, 0.0], [0.6, -0.8, 0.0], [0.3, 0.2, -0.9]]])
    d[0, 2] = np.array([0.0, 0.0, -1.0]) - x[0, 0]
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    t = tp.Tape()
    bd = bound_of(vz.DdfField(rng.normal(size=(4, 6, 3, 6))), tape=t, trainable=True)
    v = vz.soft_visibility(bd, t.parameter("x", x), d)
    assert np.all(v.data == 1.0)
    grads = tp.backward(t, tp.vsum(v * rng.normal(size=v.shape)))
    assert not any(np.any(g) for g in grads.values())
    # no queries at all: an empty v, and zero gradients of the slots' shapes
    t = tp.Tape()
    bd = bound_of(vz.DdfField(rng.normal(size=(4, 6, 3, 6))), tape=t, trainable=True)
    v = vz.soft_visibility(bd, t.parameter("x", np.zeros((0, 1, 3))), d)
    assert v.data.shape == (0, 3)
    grads = tp.backward(t, tp.vsum(v))
    assert grads["ddf_grid"].shape == (4, 6, 3, 6)
    assert not any(np.any(g) for g in grads.values())


def _mixed_queries():
    """Flat queries x, d (each (2592, 3)), a grid and epsilon under which
    the values mix in-band queries (0 < v < 1) with exact 1s, sky-side and
    below the horizon, and exact 0s."""
    rng = np.random.default_rng(31)
    dirs = icosphere_directions(2).directions @ so3_jitter(rng).T
    x = rng.uniform(-0.6, 0.6, size=(16, 1, 3))
    x, d = (a.reshape(-1, 3) for a in np.broadcast_arrays(x, dirs[None]))
    return x, d, rng.normal(scale=3.0, size=(8, 16, 6, 12)), 0.05


def test_soft_visibility_saturated_queries_add_nothing():
    # a query that reads exactly 0 or 1 passes exactly 0: the grid, epsilon
    # and x gradients of the mixed batch are, bit for bit, those of its
    # in-band queries alone, and the saturated rows of x's are 0
    x, d, grid, eps = _mixed_queries()
    upstream = np.random.default_rng(32).normal(size=x.shape[0])
    v, got = _visibility_and_grads(vz.soft_visibility, grid, eps, x, d, upstream)
    band = (v > 0.0) & (v < 1.0)
    sky = d[:, 2] > 0.0
    assert np.any(band) and np.any(v == 0.0)
    assert np.any((v == 1.0) & sky) and np.any(~sky)
    v_band, want = _visibility_and_grads(vz.soft_visibility, grid, eps, x[band], d[band],
                                         upstream[band])
    assert np.array_equal(v_band, v[band])
    assert np.any(want["ddf_grid"]) and want["vis_eps_raw"] != 0.0
    assert np.array_equal(got["ddf_grid"], want["ddf_grid"])
    assert np.array_equal(got["vis_eps_raw"], want["vis_eps_raw"])
    assert np.array_equal(got["x"][band], want["x"])
    assert not np.any(got["x"][~band])


def test_soft_visibility_all_saturated_scatters_nothing():
    # every query reads exactly 0 or 1: the grid's adjoint is an empty
    # scatter, and an Adam step on it makes no ddf_grid entry live
    x, d, grid, eps = _mixed_queries()
    t = tp.Tape()
    bd = vz.BoundDdf(t, vz.DdfField(grid), vz.VisibilityParams.default(epsilon=eps))
    v_all = vz.soft_visibility(_constant_view(bd), x, d).data
    sat = (v_all == 0.0) | (v_all == 1.0)
    v = vz.soft_visibility(bd, t.parameter("x", x[sat]), d[sat])
    assert np.array_equal(v.data, v_all[sat]) and np.any(v.data == 0.0)
    vjp_grid = next(vjp for parent, vjp in v.parents if parent is bd.grid)
    scatter = vjp_grid(np.ones(v.data.shape))
    assert isinstance(scatter, tp._Scatter)
    assert sum(index.size for index in scatter.index) == 0
    assert not np.any(scatter.to_dense())
    adam = tr.Adam()
    loss = tp.vsum(v * np.random.default_rng(33).normal(size=v.data.shape))
    assert adam.step(t, loss, {"ddf_grid": 1e-3, "vis_eps_raw": 1e-3}) is None
    assert adam.live["ddf_grid"].size == 0 and adam.live["vis_eps_raw"].size == 0


def test_soft_visibility_nan_query_keeps_a_non_finite_gradient():
    # NaN is neither 0 nor 1, so a NaN query keeps its coefficients: every
    # slot's gradient stays non-finite, for the optimiser's check to see
    x, d, grid, eps = _mixed_queries()
    x = x.copy()
    i = np.flatnonzero(d[:, 2] > 0.0)[0]
    x[i] = np.nan
    upstream = np.random.default_rng(34).normal(size=x.shape[0])
    v, grads = _visibility_and_grads(vz.soft_visibility, grid, eps, x, d, upstream)
    assert np.isnan(v[i])
    for name, g in grads.items():
        assert not np.all(np.isfinite(g)), name


def test_ddf_read_select_takes_the_lerp_trees_partials_and_keeps_its_read():
    # a read that keeps its corners takes the partials at all queries or at
    # a subset from fields._lerp_tree over them, bit for bit; select leaves
    # the read unchanged, so two selects in either order give the same bits
    rng = np.random.default_rng(36)
    grid = rng.normal(scale=3.0, size=(8, 16, 6, 12))
    # sphere points by rows, directions broadcast along the columns
    d = -icosphere_directions(1).directions
    s_c = [np.broadcast_to(a[:, None], (40, d.shape[0])) for a in sample_sphere(rng, 40).T]
    d_c = [a[None] for a in d.T]
    flat = np.arange(3, s_c[0].size, 7)
    g = rng.normal(size=s_c[0].shape)
    for order in ((None, flat), (flat, None)):
        read = vz._DdfRead(grid, s_c, d_c, True)
        corners = np.take(grid.reshape(-1), read.corner, axis=0)
        assert np.array_equal(read.corner_vals, corners)
        tree = fd._lerp_tree(corners.copy(), read.frac, True)
        assert np.array_equal(read.depth, vz._depth(tree[0])[0])
        subs = {}
        for at in order:
            sub, pick = read.select(at)
            subs[at is None] = sub, pick
            want = tree[1:] if at is None else tree[1:].reshape(4, -1)[:, at]
            assert np.array_equal(sub.partials, want)
            assert np.all(np.any(sub.partials.reshape(4, -1) != 0.0, axis=1))
            assert np.array_equal(read.corner_vals, corners)
        # the picked read's direction map, built from the picked s and d,
        # pulls back the picked adjoints of the whole read's
        (whole, _), (part, pick) = subs[True], subs[False]
        for got, want in zip(part.pullback(pick(g)), whole.pullback(g)):
            assert np.array_equal(got, pick(want))


@pytest.mark.parametrize("sky_only, scale, eps, radius",
                         [(False, 3.0, 0.05, 0.6), (True, 0.5, 0.2, 0.3)])
def test_soft_visibility_block_size_changes_no_bit(monkeypatch, sky_only, scale, eps,
                                                   radius):
    # the forward saves its pieces block by block, yet the values and the
    # grid, epsilon and x gradients are the same bits for blocks of one
    # ray, of three rays and one block for all; sky-side directions alone
    # leave some rays wholly in band, whose pieces need no pick
    rng = np.random.default_rng(35)
    dirs = icosphere_directions(2).directions @ so3_jitter(rng).T
    if sky_only:
        dirs = dirs[dirs[:, 2] > 0.0]
    x = rng.uniform(-radius, radius, size=(16, 1, 3))
    grid = rng.normal(scale=scale, size=(8, 16, 6, 12))
    upstream = rng.normal(size=(16, dirs.shape[0]))
    runs = []
    for rays in (1, 3, 16):
        monkeypatch.setattr(vz, "VISIBILITY_BLOCK", rays * dirs.shape[0])
        runs.append(_visibility_and_grads(vz.soft_visibility, grid, eps, x, dirs[None],
                                          upstream))
    (v, want), *rest = runs
    band = (v > 0.0) & (v < 1.0)
    assert np.any(band) and not np.all(band)
    assert np.any(band.all(axis=1)) == sky_only
    for got_v, got in rest:
        assert np.array_equal(got_v, v)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_binary_oracle_empty_and_occluded():
    empty = fd.SceneFields.default(resolution=16)
    empty.sdf.grid[:] = 1.0  # SDF positive everywhere
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.3, 0.3, size=(32, 3))
    d = sample_sphere(rng, 32, min_z=0.05)
    vis, flags = binary_visibility_oracle(empty.sdf, x, d)
    assert np.all(vis == 1.0)
    assert not np.any(flags)

    scene = make_scene("two-sphere")
    below = scene.primitives[0].center - np.array([0.0, 0.0,
                                                   scene.primitives[0].radius + 0.02])
    vis2, _ = binary_visibility_oracle(scene, below[None, :],
                                       np.array([[0.0, 0.0, 1.0]]))
    assert vis2[0] == 0.0


def test_binary_oracle_matches_closed_form():
    scene = make_scene("two-sphere")
    rng = np.random.default_rng(9)
    pts, normals = [], []
    for prim in scene.primitives:
        u = sample_sphere(rng, 500)
        pts.append(prim.center + (prim.radius + 2e-4) * u)
        normals.append(u)
    x = np.concatenate(pts)
    d = sample_sphere(rng, len(x), min_z=0.02)
    # tracing at threshold 1e-4 cannot decide rays that pass within the
    # threshold of tangency; compare on queries with a clear margin
    margin = np.full(len(x), np.inf)
    for prim in scene.primitives:
        oc = x - prim.center
        t_min = np.maximum(-np.sum(oc * d, axis=1), 0.0)
        closest = np.linalg.norm(oc + t_min[:, None] * d, axis=1) - prim.radius
        margin = np.minimum(margin, np.abs(closest))
    generic = margin > 2e-4
    # march the scene's SDF alone: handed the scene itself, the oracle
    # answers from the closed form this test compares against
    marcher = SimpleNamespace(sdf_np=scene.sdf_np)
    vis, _ = binary_visibility_oracle(marcher, x[generic], d[generic])
    occluded_true = scene.any_hit(x[generic], d[generic])
    assert np.array_equal(vis, (~occluded_true).astype(float))


def test_ambient_occlusion_unoccluded():
    ddf = vz.DdfField(np.full((8, 16, 4, 8), 40.0))
    bd = bound_of(ddf, vz.VisibilityParams.default(epsilon=0.1))
    ao = vz.ambient_occlusion(bd, np.array([[0.0, 0.0, 0.1]]))
    assert ao.data[0] > 1.0 - 1e-3


def test_ambient_occlusion_fully_occluded():
    ddf = vz.DdfField(np.full((8, 16, 4, 8), -40.0))  # depth ~ 0 everywhere
    bd = bound_of(ddf, vz.VisibilityParams.default(epsilon=1e-4))
    ao = vz.ambient_occlusion(bd, np.array([[0.0, 0.0, 0.1]]))
    assert ao.data[0] < 0.05


def test_ambient_occlusion_half_occluded():
    # DDF sees the surface exactly for every query (unoccluded), but for
    # directions with d_x > 0 we shrink predicted depth strongly: the mean
    # over the upper hemisphere then sits near 0.5
    dirs = icosphere_directions(2).directions
    upper = dirs[dirs[:, 2] > 0]
    x = np.array([[0.0, 0.0, 0.0]])
    grid = np.full((16, 32, 8, 16), 40.0)
    ddf = vz.DdfField(grid)
    bd = bound_of(ddf, vz.VisibilityParams.default(epsilon=0.05))
    v = vz.soft_visibility(bd, x[:, None, :], upper[None, :, :]).data.reshape(-1)
    half = np.where(upper[:, 0] > 0.0, 0.0, v)
    expected = half.mean()
    got = float(np.mean(np.where(upper[:, 0] > 0.0, 0.0, 1.0)))
    assert abs(expected - got) < 0.02


def test_shadow_map_no_occluder_and_lower_sun():
    from skylit.cameras import Camera

    scene = fd.SceneFields.default(resolution=16)
    scene.sdf.grid[:] = np.maximum(scene.sdf.grid, 0.05)  # nothing to hit
    ddf = vz.DdfField(np.full((4, 8, 3, 6), 40.0))
    params = vz.VisibilityParams.default(epsilon=0.1)
    cam = Camera.look_at([0.0, -0.6, 0.4], [0.0, 0.0, 0.0], 16, 12)
    img = vz.visibility_map(ddf, params, cam, scene, np.array([[0.0, 0.0, 1.0]]))
    assert img.shape == (12, 16)
    assert np.all(img > 0.99)  # sky pixels forced to 1, rest unoccluded

    img_low = vz.visibility_map(ddf, params, cam, scene, np.array([[0.0, 0.0, -1.0]]))
    assert np.all(img_low == 1.0)  # lower-hemisphere rule


def _shadow_setup():
    from skylit.cameras import Camera

    scene = fd.SceneFields.default(resolution=8)
    ddf = vz.DdfField(np.full((4, 8, 3, 6), 40.0))
    params = vz.VisibilityParams.default(epsilon=0.1)
    cam = Camera.look_at([0.0, -0.6, 0.4], [0.0, 0.0, 0.0], 4, 3)
    return ddf, params, cam, scene


def shadow_map(ddf, params, sun, cam, scene):
    """The map ``skylit shadow`` writes: visibility toward the checked sun."""
    return vz.visibility_map(ddf, params, cam, scene, vz.sun_direction(sun)[None])


def test_shadow_map_leaves_sun_vector_unchanged():
    ddf, params, cam, scene = _shadow_setup()
    sun = np.array([0.0, 0.0, 2.0])
    img = shadow_map(ddf, params, sun, cam, scene)
    assert np.array_equal(sun, [0.0, 0.0, 2.0])
    assert np.array_equal(img, shadow_map(ddf, params, [0.0, 0.0, 1.0], cam, scene))


@pytest.mark.parametrize("sun", [
    [0.0, 0.0, 0.0],                 # zero norm: a NaN map
    [0.8, 0.0],                      # not a 3-vector
    [[0.0, 0.0, 1.0]],
    [0.0, float("nan"), 1.0],
    [0.0, float("inf"), 1.0],
    [1e200, 1e200, 0.0],             # norm overflows to inf
])
def test_shadow_map_rejects_bad_sun_vector(sun):
    from skylit.geometry import ConfigError

    ddf, params, cam, scene = _shadow_setup()
    with pytest.raises(ConfigError):
        shadow_map(ddf, params, sun, cam, scene)


def test_visibility_map_is_ambient_occlusion_at_render_depth():
    # over 2112 pixels, past render_image's 2048-pixel chunk: where the
    # accumulated weight reaches 1e-3 the map is the point-level mean at the
    # expected surface point that render_image reports, bit for bit; sky
    # pixels read 1
    from skylit import illumination as il
    from skylit.cameras import Camera
    from skylit.render import render_image

    scene = fd.SceneFields(fd.SdfField.sphere_init(16, radius=0.25, inv_s=200.0),
                           fd.AlbedoField.constant_init(16))
    ddf = vz.DdfField(np.random.default_rng(4).normal(size=(6, 12, 4, 8)))
    params = vz.VisibilityParams.default(epsilon=0.3)
    cam = Camera.look_at([0.0, -0.6, 0.4], [0.0, 0.0, 0.0], 48, 44)
    sky = il.IlluminationBank.zeros(il.LobeDecoder.default(), 1)
    ren = render_image(cam, scene, sky, 0, dir_level=0)
    img = vz.visibility_map(ddf, params, cam, scene)
    x = cam.origin + ren.depth.reshape(-1, 1) * cam.ray_dirs(cam.all_pixels())
    ao = vz.ambient_occlusion(bound_of(ddf, params), x).data.reshape(img.shape)
    surface = ren.weight >= 1e-3
    assert np.any(surface) and np.any(~surface)
    assert np.array_equal(img[surface], ao[surface])
    assert np.all(img[~surface] == 1.0)
    assert np.any(ao[surface] < 0.9)  # the random DDF occludes: not all 1
