import numpy as np
import pytest

from skylit import fields as fd
from skylit import illumination as il
from skylit import render as rd
from skylit import tape as tp
from skylit import visibility as vz
from skylit.cameras import Camera
from skylit.geometry import icosphere_directions, so3_jitter, srgb
from tests.conftest import (bind_ddf, bind_fields, bind_illumination, dense_render_rays,
                            plane_shading, sky_latent)


@pytest.fixture(scope="module")
def unit_sky():
    return il.IlluminationBank.zeros(il.LobeDecoder.default(), 1)


@pytest.fixture(scope="module")
def dirs642():
    return icosphere_directions(3)


def test_shade_black_albedo(unit_sky):
    surface, albedo = plane_shading([0.0, 0.0, 1.0], unit_sky, albedo_raw=-1000.0)
    assert np.all(albedo == 0.0)
    assert np.abs(surface).max() < 1e-15


def test_shade_uniform_sky_gives_pi_albedo(unit_sky):
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.uniform(-2.0, 2.0, size=3)
        surface, albedo = plane_shading(rng.normal(size=3), unit_sky,
                                        albedo_raw=raw)
        assert np.allclose(albedo, 1.0 / (1.0 + np.exp(-raw)), rtol=1e-6)
        assert np.abs(surface / (np.pi * albedo) - 1.0).max() < 0.01


def test_shade_visibility_blocks_upper_hemisphere(unit_sky, dirs642):
    # DDF with ~zero depth and tiny epsilon: every sky-side direction
    # (d_z > 0) is occluded, and the result equals the brute-force partial
    # sum over the directions on or below the horizon, which are visible.
    # At jitter = eye, 32 of the 642 directions lie exactly on the horizon;
    # a wall's normal faces half of them.
    d = dirs642.directions
    assert np.count_nonzero(d[:, 2] == 0.0) == 32
    for raw, normal in ((-60.0, [0.3, -0.2, 0.933]), (-4.0, [1.0, 0.0, 0.0])):
        ddf = vz.DdfField(np.full((8, 16, 4, 8), raw))
        params = vz.VisibilityParams.default(epsilon=1e-5)
        n = np.array(normal) / np.linalg.norm(normal)
        surface, albedo = plane_shading(n, unit_sky, ddf=ddf, params=params)
        lower = d[:, 2] <= 0.0
        cos = np.maximum(d[lower] @ n, 0.0)
        brute = (4.0 * np.pi / d.shape[0]) * cos.sum()
        assert np.allclose(surface / albedo, brute, rtol=1e-4)
        # the same normal under an open sky gathers the upper hemisphere too
        open_sky, _ = plane_shading(n, unit_sky)
        assert np.all(open_sky > 1.5 * surface)


def test_shade_isotropy_uniform_sky(unit_sky):
    rng = np.random.default_rng(1)
    vals = []
    for _ in range(20):
        surface, albedo = plane_shading(rng.normal(size=3), unit_sky)
        vals.append(surface[0] / albedo[0])
    assert (max(vals) - min(vals)) / np.pi < 0.01


def test_shade_jitter_stability():
    rng = np.random.default_rng(2)
    dec = il.LobeDecoder.default()
    z = sky_latent(dec, rng)
    sky = il.IlluminationBank(dec, z[None], [0.0])
    n = np.array([0.0, 0.0, 1.0])
    c1, _ = plane_shading(n, sky, jitter=so3_jitter(rng))
    c2, _ = plane_shading(n, sky, jitter=so3_jitter(rng))
    assert np.abs(c1 / c2 - 1.0).max() < 0.02


def test_shade_monotone_in_visibility(dirs642):
    # raising one direction's visibility (a factor on its radiance, as in
    # render_rays) never lowers any output of the quadrature op
    rng = np.random.default_rng(3)
    dec = il.LobeDecoder.default()
    sky = il.IlluminationBank(dec, sky_latent(dec, rng)[None], [0.0])
    d = dirs642.directions
    normals = rng.normal(size=(16, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    ray = np.repeat([0, 1], 8)
    vis = rng.uniform(0.0, 1.0, size=len(d))
    rad = il.radiance(sky, 0, d)

    def quad(v):
        radiance = np.broadcast_to(rad * v[:, None], (2,) + rad.shape)
        return tp.lambert_quadrature(normals, d, radiance, ray).data

    base = quad(vis)
    raised = 0
    for k in range(0, len(d), 7):
        vis2 = vis.copy()
        vis2[k] = min(vis2[k] + 0.3, 1.0)
        bumped = quad(vis2)
        assert np.all(bumped >= base)
        raised += int(np.any(bumped > base))
    assert raised > 0


def test_render_rays_with_constant_bindings_records_nothing(unit_sky):
    # the inference path: fields bound as constants build no graph, even
    # when a tape is at hand
    t = tp.Tape()
    scene = make_plane_scene(resolution=16)
    ddf = vz.DdfField(np.random.default_rng(8).normal(size=(4, 8, 3, 6)))
    out = rd.render_rays(
        fd.BoundFields(t, scene, trainable=False),
        il.BoundIllumination(t, unit_sky, trainable=False),
        vz.BoundDdf(t, ddf, vz.VisibilityParams.default(), trainable=False),
        np.tile([[0.0, 0.0, 0.4]], (4, 1)), np.tile([[0.0, 0.0, -1.0]], (4, 1)),
        np.zeros(4, dtype=np.int64), dir_set=icosphere_directions(1),
        jitter=np.eye(3), rng=np.random.default_rng(9), n_samples=16,
    )
    assert len(t.nodes) == 0
    vars_ = [v for v in out.values() if isinstance(v, tp.Var)]
    assert out["rgb"] in vars_
    assert all(v.parents == () and v.tape is None for v in vars_)


def make_plane_scene(resolution=48):
    # opaque plane z=0 via grid SDF: f = z
    sdf = fd.SdfField.from_function(lambda p: p[:, 2], resolution=resolution)
    sdf.log_inv_s = np.asarray(np.log(400.0))
    albedo = fd.AlbedoField.constant_init(resolution, value=40.0)  # sigmoid -> ~1
    return fd.SceneFields(sdf, albedo)


def test_render_rays_empty_scene(unit_sky):
    scene = fd.SceneFields.default(resolution=16)
    scene.sdf.grid[:] = np.maximum(scene.sdf.grid, 0.05)
    t = tp.Tape()
    bf = fd.BoundFields(t, scene, trainable=False)
    bi = il.BoundIllumination(t, unit_sky, trainable=False)
    rng = np.random.default_rng(4)
    out = rd.render_rays(
        bf, bi, None, np.array([[0.0, 0.0, 0.3]]),
        np.array([[0.0, 0.0, 1.0]]), np.zeros(1, dtype=np.int64),
        dir_set=icosphere_directions(1), jitter=np.eye(3), rng=rng, n_samples=24,
    )
    assert out["W"].data[0] < 1e-6
    assert out["t_e"].data[0] == pytest.approx(out["samples"].far[0])
    # pure background: the unit sky
    assert np.allclose(out["rgb"].data[0], 1.0, atol=1e-6)


def test_render_rays_opaque_plane_uniform_sky(unit_sky):
    scene = make_plane_scene()
    t = tp.Tape()
    bf = fd.BoundFields(t, scene, trainable=False)
    bi = il.BoundIllumination(t, unit_sky, trainable=False)
    rng = np.random.default_rng(5)
    origins = np.tile([[0.0, 0.0, 0.4]], (8, 1))
    dirs = np.tile([[0.0, 0.0, -1.0]], (8, 1))
    out = rd.render_rays(
        bf, bi, None, origins, dirs, np.zeros(8, dtype=np.int64),
        dir_set=icosphere_directions(3), jitter=np.eye(3), rng=rng, n_samples=64,
    )
    w = out["W"].data
    assert np.all(w > 0.95)
    # composition of the quadrature: albedo ~1, irradiance ~pi (upper) with
    # the background contributing (1-W)
    expect = np.pi * 1.0 * w + (1.0 - w)
    assert np.abs(out["rgb"].data / expect[:, None] - 1.0).max() < 0.02


def test_render_deterministic_under_seed(unit_sky):
    scene = fd.SceneFields.default(resolution=16)
    cam = Camera.look_at([0.0, -0.5, 0.3], [0.0, 0.0, 0.1], 12, 9)
    img1 = rd.render_image(cam, scene, unit_sky, 0, dir_level=1, n_samples=16,
                           seed=7)
    img2 = rd.render_image(cam, scene, unit_sky, 0, dir_level=1, n_samples=16,
                           seed=7)
    assert np.array_equal(img1.rgb, img2.rgb)
    assert np.array_equal(img1.depth, img2.depth)


def test_render_image_sky_pixels_match_illumination(unit_sky):
    scene = fd.SceneFields.default(resolution=16)
    scene.sdf.grid[:] = 0.5  # constant positive: exactly zero alpha
    dec = unit_sky.decoder
    rng = np.random.default_rng(6)
    z = sky_latent(dec, rng)
    # the sky of row 1 of a three-image bank
    bank = il.IlluminationBank(dec, np.stack([z - 0.5, z, z + 0.5]),
                               np.log([0.7, 1.3, 2.0]))
    cam = Camera.look_at([0.0, -0.5, 0.3], [0.0, 0.0, 0.2], 16, 12)
    img = rd.render_image(cam, scene, bank, 1, dir_level=1, n_samples=16, seed=0)
    dirs = cam.ray_dirs(cam.all_pixels())
    want = il.radiance(bank, 1, dirs).reshape(12, 16, 3)
    assert np.allclose(img.rgb, want, rtol=1e-6)
    assert np.allclose(img.srgb, srgb(want), atol=1e-9)


def test_principal_point_ray_is_forward_axis():
    cam = Camera.look_at([0.2, -0.5, 0.3], [0.0, 0.1, 0.0], 32, 24)
    px = np.array([[cam.width / 2.0 - 0.5, cam.height / 2.0 - 0.5]])
    d = cam.ray_dirs(px)[0]
    assert np.allclose(d, cam.R[2], atol=1e-12)


def test_camera_requires_invertible_intrinsics():
    from skylit.geometry import ConfigError

    with pytest.raises(ConfigError):
        Camera(K=np.zeros((3, 3)), E=np.eye(3, 4), width=8, height=8)


def test_render_output_monotone_visibility_effect(unit_sky):
    # raising visibility (by raising epsilon) never darkens any pixel
    scene = make_plane_scene(resolution=32)
    rng = np.random.default_rng(7)
    ddf = vz.DdfField(rng.normal(size=(8, 16, 6, 12)))
    cam = Camera.look_at([0.0, -0.5, 0.35], [0.0, 0.0, 0.0], 8, 6)
    imgs = []
    for eps in (0.05, 0.6, 2.0):
        imgs.append(rd.render_image(
            cam, scene, unit_sky, 0, ddf=ddf,
            params=vz.VisibilityParams.default(epsilon=eps),
            dir_level=1, n_samples=24, seed=1).rgb)
    assert np.all(imgs[1] >= imgs[0] - 1e-9)
    assert np.all(imgs[2] >= imgs[1] - 1e-9)


def test_open_sky_ddf_renders_as_no_ddf_and_maps_to_full_visibility(unit_sky):
    # no DDF means every direction is visible; a DDF whose tolerance makes
    # every direction visible renders the same, and its ambient-occlusion
    # map (mean visibility) is 1 everywhere
    scene = make_plane_scene(resolution=24)
    cam = Camera.look_at([0.0, -0.5, 0.35], [0.0, 0.0, 0.0], 8, 6)
    kw = dict(dir_level=1, n_samples=16, seed=2)
    ddf = vz.DdfField.zero_init()
    params = vz.VisibilityParams.default(epsilon=100.0)
    bare = rd.render_image(cam, scene, unit_sky, 0, **kw)
    open_sky = rd.render_image(cam, scene, unit_sky, 0, ddf=ddf, params=params, **kw)
    assert np.array_equal(bare.rgb, open_sky.rgb)
    assert np.all(vz.visibility_map(ddf, params, cam, scene) == 1.0)


def test_render_image_with_ddf_needs_params(unit_sky):
    scene = make_plane_scene(resolution=8)
    cam = Camera.look_at([0.0, -0.5, 0.35], [0.0, 0.0, 0.0], 4, 3)
    ddf = vz.DdfField.zero_init((4, 8), (3, 6))
    with pytest.raises(ValueError, match="params"):
        rd.render_image(cam, scene, unit_sky, 0, ddf=ddf, dir_level=0, n_samples=4)


def _oracle_case(kind, n_rays=6):
    """Trainable fields, sky and DDF, plus rays, for comparing
    ``render_rays`` with the dense oracle. ``kind`` picks the SDF: "mixed"
    (a noisy sphere: some samples shaded, some not), "steep" (a plane at
    inv_s 5000: transmittance is exactly 0 behind it while alpha is not)
    or "empty" (a constant grid: no sample shaded)."""
    rng = np.random.default_rng(11)
    if kind == "mixed":
        sdf = fd.SdfField.sphere_init(8, radius=0.3, inv_s=15.0)
        sdf.grid += 0.1 * rng.normal(size=sdf.grid.shape)
    elif kind == "steep":
        sdf = fd.SdfField.from_function(lambda p: p @ [0.1, 0.0, 0.995], resolution=8,
                                        inv_s=5000.0)
    else:
        sdf = fd.SdfField(np.full((8, 8, 8), 0.3))
    decoder = il.LobeDecoder.default(4)
    params = {
        "sdf_grid": sdf.grid,
        "sdf_log_inv_s": sdf.log_inv_s,
        "albedo_grid": rng.normal(size=(6, 6, 6, 3)),
        "ddf_grid": -0.3 + 0.6 * rng.normal(size=(4, 6, 3, 4)),
        "vis_eps_raw": vz.VisibilityParams.default(epsilon=0.2).eps_raw,
        "illum_Z": 0.2 * rng.normal(size=(2, 3, decoder.n_lobes)),
        "illum_log_gamma": np.log([0.3, 0.5]),
    }
    origins = rng.uniform(-0.2, 0.2, size=(n_rays, 3)) + [0.0, -0.5, 0.4]
    dirs = rng.normal(size=(n_rays, 3)) * 0.3 + [0.0, 0.7, -0.6]
    rays = dict(origins=origins, dirs=dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                image_idx=rng.integers(0, 2, size=n_rays),
                jitter=so3_jitter(rng), dir_set=icosphere_directions(1))
    upstream = {k: rng.normal(size=shape) for k, shape in (
        ("rgb", (n_rays, 3)), ("W", (n_rays,)), ("t_e", (n_rays,)),
        ("weighted_normals", (n_rays, 3)), ("weighted_albedo", (n_rays, 3)))}
    return params, rays, upstream, decoder


def _render_and_grads(render, params, rays, upstream, decoder, with_vis=True):
    t = tp.Tape()
    pv = {k: t.parameter(k, v) for k, v in params.items()}
    ddf = vz.DdfField(params["ddf_grid"])
    vis = vz.VisibilityParams.default()
    bf = bind_fields(fd.SceneFields(fd.SdfField(params["sdf_grid"]),
                                    fd.AlbedoField(params["albedo_grid"])),
                     pv["sdf_grid"], pv["sdf_log_inv_s"], pv["albedo_grid"])
    bi = bind_illumination(decoder, pv["illum_Z"], pv["illum_log_gamma"])
    bd = bind_ddf(ddf, vis, pv["ddf_grid"], pv["vis_eps_raw"])
    out = render(bf, bi, bd if with_vis else None, rays["origins"], rays["dirs"],
                 rays["image_idx"], dir_set=rays["dir_set"], jitter=rays["jitter"],
                 rng=np.random.default_rng(12), n_samples=12)
    loss = None
    for k, u in upstream.items():
        term = tp.vsum(out[k] * u)
        loss = term if loss is None else loss + term
    return out, tp.backward(t, loss)


@pytest.mark.parametrize("kind", ["mixed", "steep", "empty"])
@pytest.mark.parametrize("with_vis", [True, False])
def test_render_rays_matches_dense_oracle(kind, with_vis):
    # shading only the samples with non-zero alpha gives the dense grid's
    # values and every slot's gradient, up to rounding
    params, rays, upstream, decoder = _oracle_case(kind)
    got, g_got = _render_and_grads(rd.render_rays, params, rays, upstream,
                                   decoder, with_vis)
    want, g_want = _render_and_grads(dense_render_rays, params, rays, upstream,
                                     decoder, with_vis)
    for k in ("rgb", "W", "t_e", "weights", "weighted_normals",
              "weighted_albedo", "background"):
        assert got[k].data.shape == want[k].data.shape
        np.testing.assert_allclose(got[k].data, want[k].data, rtol=1e-12, atol=0.0)
    assert g_got.keys() == g_want.keys()
    for k in g_want:
        assert g_got[k].dtype == np.float64 and g_got[k].shape == g_want[k].shape
        scale = np.abs(g_want[k]).max()
        np.testing.assert_allclose(g_got[k], g_want[k], rtol=1e-12, atol=1e-12 * scale)
    share = np.count_nonzero(got["weights"].data) / got["weights"].data.size
    if kind == "empty":
        assert share == 0.0
    else:
        assert 0.0 < share < 1.0
        assert np.abs(g_want["sdf_grid"]).max() > 0.0
        assert np.abs(g_want["albedo_grid"]).max() > 0.0


def test_render_rays_with_no_shaded_sample_is_the_background():
    # a constant SDF gives every sample alpha 0: the render is the
    # background composite, and the fields get on-tape zero gradients
    params, rays, upstream, decoder = _oracle_case("empty")
    out, grads = _render_and_grads(rd.render_rays, params, rays, upstream, decoder)
    assert np.all(out["W"].data == 0.0)
    assert np.array_equal(out["rgb"].data, out["background"].data)
    assert np.all(out["weighted_albedo"].data == 0.0)
    assert np.all(out["weighted_normals"].data == 0.0)
    for k in ("sdf_grid", "sdf_log_inv_s", "albedo_grid", "ddf_grid", "vis_eps_raw"):
        assert grads[k].dtype == np.float64
        assert np.all(grads[k] == 0.0), k
    assert np.abs(grads["illum_Z"]).max() > 0.0


def test_render_rays_shades_exactly_the_samples_with_alpha(monkeypatch):
    # albedo and normals are read at the shaded samples only, in ray order
    params, rays, upstream, decoder = _oracle_case("mixed")
    calls = {}

    def record(name, fn):
        def wrapped(*args):
            calls[name] = (args, fn(*args))
            return calls[name][1]
        monkeypatch.setattr(fd, name, wrapped)

    for name in ("albedo_eval", "sdf_normals", "neus_weights"):
        record(name, getattr(fd, name))
    out, _ = _render_and_grads(rd.render_rays, params, rays, upstream, decoder)
    _, shaded = calls["neus_weights"][1]
    assert 0 < np.count_nonzero(shaded) < shaded.size
    want = out["samples"].positions[shaded]
    for name in ("albedo_eval", "sdf_normals"):
        assert np.array_equal(calls[name][0][1], want)
