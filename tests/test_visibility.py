from types import SimpleNamespace

import numpy as np
import pytest

from skylit import fields as fd
from skylit import tape as tp
from skylit import visibility as vz
from skylit.geometry import icosphere_directions, sample_sphere
from skylit.scenes import make_scene
from tests.conftest import binary_visibility_oracle


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


def test_ddf_outward_direction_rejected():
    bd = bound_of(vz.DdfField.zero_init((4, 8), (3, 6)))
    with pytest.raises(vz.PreconditionError):
        vz.ddf_eval(bd, np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, 1.0]]))


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
    s_var, t_var = vz.exit_point(tp._lift(x), d)
    depth = vz.ddf_eval(bd, s_var, -d, strict=False)
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


def test_stop_gradient_blocks_visibility():
    rng = np.random.default_rng(7)
    grid0 = rng.normal(size=(4, 8, 3, 6))

    def loss_with(stop):
        t = tp.Tape()
        bd = vz.BoundDdf(t, vz.DdfField(grid0.copy()),
                         vz.VisibilityParams.default(epsilon=0.3),
                         trainable=True)
        x = tp._lift(np.array([[[0.1, -0.2, 0.05]]]))
        d = np.array([[[0.3, 0.2, 0.93]]])
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        v = vz.soft_visibility(bd, x, d, stop_grad=stop)
        return tp.backward(t, tp.vsum(v * 3.0))

    g_free = loss_with(False)
    g_stop = loss_with(True)
    assert np.abs(g_free["ddf_grid"]).max() > 0.0
    assert np.all(g_stop["ddf_grid"] == 0.0)
    assert np.all(g_stop["vis_eps_raw"] == 0.0)


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
    occ = scene.occluded(x[generic], d[generic])
    occluded_true = occ[np.arange(generic.sum()), np.arange(generic.sum())]
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
