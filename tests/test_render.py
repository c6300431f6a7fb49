import numpy as np
import pytest

from skylit import fields as fd
from skylit import illumination as il
from skylit import render as rd
from skylit import tape as tp
from skylit import visibility as vz
from skylit.cameras import Camera
from skylit.geometry import icosphere_directions, so3_jitter, srgb
from tests.conftest import plane_shading


@pytest.fixture(scope="module")
def unit_sky():
    return il.IlluminationState.zero(il.LobeDecoder.default())


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
    # DDF with ~zero depth and tiny epsilon: everything upper is occluded,
    # result equals the lower-hemisphere partial sum computed by brute force
    ddf = vz.DdfField(np.full((8, 16, 4, 8), -60.0))
    params = vz.VisibilityParams.default(epsilon=1e-5)
    n = np.array([0.3, -0.2, 0.933])
    n /= np.linalg.norm(n)
    surface, albedo = plane_shading(n, unit_sky, ddf=ddf, params=params)
    d = dirs642.directions
    lower = d[:, 2] < 0.0
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
    z = il.sample_latent(dec, rng)
    state = il.IlluminationState(dec, z, np.asarray(0.0))
    n = np.array([0.0, 0.0, 1.0])
    c1, _ = plane_shading(n, state, jitter=so3_jitter(rng))
    c2, _ = plane_shading(n, state, jitter=so3_jitter(rng))
    assert np.abs(c1 / c2 - 1.0).max() < 0.02


def test_shade_monotone_in_visibility(dirs642):
    # raising one direction's visibility (a factor on its radiance, as in
    # render_rays) never lowers any output of the quadrature op
    rng = np.random.default_rng(3)
    dec = il.LobeDecoder.default()
    state = il.IlluminationState(dec, il.sample_latent(dec, rng), np.asarray(0.0))
    d = dirs642.directions
    normals = rng.normal(size=(2, 8, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    vis = rng.uniform(0.0, 1.0, size=len(d))
    rad = il.radiance(state, d)

    def quad(v):
        radiance = np.broadcast_to(rad * v[:, None], (2,) + rad.shape)
        return tp.lambert_quadrature(normals, d, radiance).data

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
    bank = il.IlluminationBank(unit_sky.decoder, 1)
    ddf = vz.DdfField(np.random.default_rng(8).normal(size=(4, 8, 3, 6)))
    out = rd.render_rays(
        t, fd.BoundFields(t, scene, trainable=False),
        il.BoundIllumination(t, bank, trainable=False),
        vz.BoundDdf(t, ddf, vz.VisibilityParams.default(), trainable=False),
        np.tile([[0.0, 0.0, 0.4]], (4, 1)), np.tile([[0.0, 0.0, -1.0]], (4, 1)),
        np.zeros(4, dtype=np.int64), icosphere_directions(1), np.eye(3),
        np.random.default_rng(9), n_samples=16,
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
    bank = il.IlluminationBank(unit_sky.decoder, 1)
    t = tp.Tape()
    bf = fd.BoundFields(t, scene, trainable=False)
    bi = il.BoundIllumination(t, bank, trainable=False)
    rng = np.random.default_rng(4)
    out = rd.render_rays(
        t, bf, bi, None, np.array([[0.0, 0.0, 0.3]]),
        np.array([[0.0, 0.0, 1.0]]), np.zeros(1, dtype=np.int64),
        icosphere_directions(1), np.eye(3), rng, n_samples=24,
    )
    assert out["W"].data[0] < 1e-6
    assert out["t_e"].data[0] == pytest.approx(out["samples"].far[0])
    # pure background: the unit sky
    assert np.allclose(out["rgb"].data[0], 1.0, atol=1e-6)


def test_render_rays_opaque_plane_uniform_sky(unit_sky):
    scene = make_plane_scene()
    bank = il.IlluminationBank(unit_sky.decoder, 1)
    t = tp.Tape()
    bf = fd.BoundFields(t, scene, trainable=False)
    bi = il.BoundIllumination(t, bank, trainable=False)
    rng = np.random.default_rng(5)
    origins = np.tile([[0.0, 0.0, 0.4]], (8, 1))
    dirs = np.tile([[0.0, 0.0, -1.0]], (8, 1))
    out = rd.render_rays(
        t, bf, bi, None, origins, dirs, np.zeros(8, dtype=np.int64),
        icosphere_directions(3), np.eye(3), rng, n_samples=64,
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
    img1 = rd.render_image(cam, scene, unit_sky, dir_level=1, n_samples=16,
                           seed=7)
    img2 = rd.render_image(cam, scene, unit_sky, dir_level=1, n_samples=16,
                           seed=7)
    assert np.array_equal(img1.rgb, img2.rgb)
    assert np.array_equal(img1.depth, img2.depth)


def test_render_image_sky_pixels_match_illumination(unit_sky):
    scene = fd.SceneFields.default(resolution=16)
    scene.sdf.grid[:] = 0.5  # constant positive: exactly zero alpha
    dec = unit_sky.decoder
    rng = np.random.default_rng(6)
    z = il.sample_latent(dec, rng)
    state = il.IlluminationState(dec, z, np.asarray(np.log(1.3)))
    cam = Camera.look_at([0.0, -0.5, 0.3], [0.0, 0.0, 0.2], 16, 12)
    img = rd.render_image(cam, scene, state, dir_level=1, n_samples=16, seed=0)
    dirs = cam.ray_dirs(cam.all_pixels())
    want = il.radiance(state, dirs).reshape(12, 16, 3)
    assert np.allclose(img.rgb, want, rtol=1e-6)
    assert np.allclose(img.srgb, srgb(want), atol=1e-9)


def test_principal_point_ray_is_forward_axis():
    cam = Camera.look_at([0.2, -0.5, 0.3], [0.0, 0.1, 0.0], 32, 24)
    px = np.array([[cam.width / 2.0 - 0.5, cam.height / 2.0 - 0.5]])
    d = cam.ray_dirs(px)[0]
    assert np.allclose(d, cam.forward_axis(), atol=1e-12)


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
            cam, scene, unit_sky, ddf=ddf,
            params=vz.VisibilityParams.default(epsilon=eps),
            dir_level=1, n_samples=24, seed=1).rgb)
    assert np.all(imgs[1] >= imgs[0] - 1e-9)
    assert np.all(imgs[2] >= imgs[1] - 1e-9)
