import numpy as np
import pytest

from skylit import fields as fd
from skylit import scenes as sc
from skylit.geometry import icosphere_directions, normalize, sample_sphere, vmf_sample_batch
from tests.conftest import ReferenceScene, reference_in_ball

EPS = 1e-6


def _flat_prim_t(prim, o, d):
    """Per-primitive ray distances on flat (M,3) rays, each product summed
    with ``np.sum`` and each slab reduced over a trailing axis of 3."""
    if isinstance(prim, sc.Sphere):
        oc = o - prim.center
        b = 2.0 * np.sum(oc * d, axis=-1)
        c = np.sum(oc * oc, axis=-1) - prim.radius**2
        disc = b * b - 4.0 * c
        root = np.sqrt(np.maximum(disc, 0.0))
        t0, t1 = (-b - root) / 2.0, (-b + root) / 2.0
        t = np.where(t0 > EPS, t0, t1)
        return np.where((disc > 0.0) & (t > EPS), t, np.inf)
    if isinstance(prim, sc.Box):
        safe_d = np.where(np.abs(d) < 1e-12, 1e-12, d)
        lo = (prim.center - prim.half_extents - o) / safe_d
        hi = (prim.center + prim.half_extents - o) / safe_d
        t_near = np.max(np.minimum(lo, hi), axis=-1)
        t_far = np.min(np.maximum(lo, hi), axis=-1)
        t = np.where(t_near > EPS, t_near, t_far)
        return np.where((t_far > np.maximum(t_near, EPS)) & (t > EPS), t, np.inf)
    return prim.intersect(o, d)


def _oracle_intersect(scene, o, d):
    """Nearest hit per flat ray; the unit-ball test runs on every ray.
    Returns (t, prim_index, hit, hits dropped beyond the ball)."""
    ts, beyond = [], 0
    for prim in scene.primitives:
        t = _flat_prim_t(prim, o, d)
        finite = np.isfinite(t)
        pts = o + np.where(finite, t, 0.0)[..., None] * d
        bad = ~finite | (np.linalg.norm(pts, axis=-1) > 1.0)
        beyond += int(np.sum(finite & bad))
        ts.append(np.where(bad, np.inf, t))
    ts = np.stack(ts)
    t = np.min(ts, axis=0)
    return t, np.argmin(ts, axis=0), np.isfinite(t), beyond


def _oracle_occluded(scene, points, dirs):
    """Every point against every direction through repeated and tiled rays."""
    n, m = len(points), len(dirs)
    _, _, hit, beyond = _oracle_intersect(
        scene, np.repeat(points, m, axis=0), np.tile(dirs, (n, 1)))
    return hit.reshape(n, m), beyond


def _straddling_box_scene():
    """A ground plane and a box whose outer corners lie beyond the unit ball."""
    prims = [sc.GroundPlane(0.0, np.array([0.6, 0.6, 0.6])),
             sc.Box(np.array([0.62, 0.1, 0.2]), np.array([0.2, 0.25, 0.2]),
                    np.array([0.4, 0.4, 0.4]))]
    base = sc.make_scene("blocker")
    return sc.SyntheticScene("plane-box", prims, base.illumination, base.sun_dir)


def _scene(name):
    return _straddling_box_scene() if name == "plane-box" else sc.make_scene(name)


def _surface_points(scene, rng, n):
    """Camera-ray hits offset 1e-4 along their normals, as the ground-truth
    renderer offsets them."""
    cams = sc.camera_rig(scene, 4, 16, 12, rng)
    pts, nrm = [], []
    for cam in cams:
        d = cam.ray_dirs(cam.all_pixels())
        o = np.broadcast_to(cam.origin, d.shape)
        t, idx, hit = scene.intersect(o, d)
        p = o[hit] + t[hit, None] * d[hit]
        nrm.append(scene.surface_info(idx[hit], p)[0])
        pts.append(p)
    pts, nrm = np.concatenate(pts), np.concatenate(nrm)
    pick = rng.choice(len(pts), size=min(n, len(pts)), replace=False)
    return pts[pick] + 1e-4 * nrm[pick]


def _grazing_dirs(scene, points):
    """Per point, directions at, just inside and just outside tangency of
    each sphere the point lies outside of."""
    origins, dirs = [np.zeros((0, 3))], [np.zeros((0, 3))]
    for prim in scene.primitives:
        if not isinstance(prim, sc.Sphere):
            continue
        v = prim.center - points
        dist = np.linalg.norm(v, axis=1)
        keep = dist > prim.radius * (1.0 + 1e-6)
        u = v[keep] / dist[keep, None]
        w = normalize(np.cross(u, [0.3, -0.5, 0.8]))
        alpha = np.arcsin(prim.radius / dist[keep])
        for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            a = (alpha * scale)[:, None]
            origins.append(points[keep])
            dirs.append(np.cos(a) * u + np.sin(a) * w)
    return np.concatenate(origins), np.concatenate(dirs)


def _ball_edge_rays():
    """Rays onto the ground plane at radii around 1: hits just inside and
    just outside the unit ball."""
    o = np.array([-0.35, -0.3, 0.45])  # outside every primitive
    radii = np.array([1.0 - 1e-9, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9])
    phi = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    rr, pp = np.meshgrid(radii, phi)
    q = np.stack([rr * np.cos(pp), rr * np.sin(pp), np.zeros_like(rr)], axis=-1)
    d = normalize(q.reshape(-1, 3) - o)
    return np.broadcast_to(o, d.shape).copy(), d


AXIS_DIRS = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                      [0.6, 0.8, 0.0], [0.0, -0.6, 0.8], [0.8, 0.0, -0.6]])


@pytest.mark.parametrize("name", ["two-sphere", "sphere-plane", "blocker", "plane-box"])
def test_intersect_and_occluded_match_flat_nearest_hit_oracle(name):
    scene = _scene(name)
    rng = np.random.default_rng(11)
    points = _surface_points(scene, rng, 120)
    go, gd = _grazing_dirs(scene, points)
    # both hemispheres, directions with exactly zero components, and the
    # grazing directions of the first point
    dirs = np.concatenate([icosphere_directions(2).directions, AXIS_DIRS,
                           gd[np.all(go == points[0], axis=1)]])

    occ = scene.occluded(points, dirs)
    occ_true, _ = _oracle_occluded(scene, points, dirs)
    assert occ.shape == (len(points), len(dirs))
    assert np.array_equal(occ, occ_true)
    assert 0.05 < occ_true.mean() < 0.95
    sun = scene.occluded(points, scene.sun_dir[None, :])
    assert np.array_equal(sun, _oracle_occluded(scene, points, scene.sun_dir[None, :])[0])

    eo, ed = _ball_edge_rays()
    o = np.concatenate([np.repeat(points, len(dirs), axis=0), go, eo])
    d = np.concatenate([np.tile(dirs, (len(points), 1)), gd, ed])
    t, idx, hit = scene.intersect(o, d)
    t_true, idx_true, hit_true, beyond = _oracle_intersect(scene, o, d)
    assert np.array_equal(t, t_true)
    assert np.array_equal(idx, idx_true)
    assert np.array_equal(hit, hit_true)
    if any(isinstance(p, sc.GroundPlane) for p in scene.primitives):
        edge = slice(len(o) - len(eo), len(o))
        assert 0 < hit_true[edge].sum() < len(eo)
        assert beyond > 0
    # one origin against many directions broadcasts
    t1, idx1, hit1 = scene.intersect(points[0], dirs)
    t1_true, idx1_true, hit1_true, _ = _oracle_intersect(
        scene, np.broadcast_to(points[0], dirs.shape), dirs)
    assert np.array_equal(t1, t1_true) and np.array_equal(idx1, idx1_true)
    assert np.array_equal(hit1, hit1_true)



def _eps_root_rays(scene):
    """Per primitive, rays straight down onto its top whose near root lies
    around 1e-6, the hit threshold: origins at the top plus 1e-6 and up to
    four float steps either side. Above the ground plane the middle root is
    1e-6 exactly; a sphere's or box's roots straddle it."""
    origins = []
    for prim in scene.primitives:
        if isinstance(prim, sc.GroundPlane):
            x, y, top = 0.1, -0.2, prim.level
        elif isinstance(prim, sc.Sphere):
            (x, y, _), top = prim.center, prim.center[2] + prim.radius
        else:
            (x, y, _), top = prim.center, prim.center[2] + prim.half_extents[2]
        z = top + 1e-6
        for k in range(-4, 5):
            origins.append([x, y, z + k * np.spacing(z)])
    origins = np.array(origins)
    return origins, np.broadcast_to([0.0, 0.0, -1.0], origins.shape).copy()


def _sphere_rays(scene, rng):
    """Rays from the unit sphere inward, as the DDF samplers draw them, half
    of them from its horizon circle, where the ground plane's SDF is 0 and
    a ray starts inside the surface."""
    s = sample_sphere(rng, 64, min_z=0.0)
    s[::2, 2] = 0.0
    s[::2, :2] /= np.linalg.norm(s[::2, :2], axis=1, keepdims=True)
    return s, vmf_sample_batch(-s, 20.0, 1, rng)[:, 0]


@pytest.mark.parametrize("name", ["two-sphere", "sphere-plane", "blocker", "plane-box"])
def test_tracing_matches_the_gathering_oracles_byte_for_byte(name):
    scene = _scene(name)
    ref = ReferenceScene.of(scene)
    rng = np.random.default_rng(5)
    points = _surface_points(scene, rng, 60)
    go, gd = _grazing_dirs(scene, points)
    eo, ed = _ball_edge_rays()
    zo, zd = _eps_root_rays(scene)
    so, sd = _sphere_rays(scene, rng)
    dirs = np.concatenate([icosphere_directions(2).directions, AXIS_DIRS, gd[:40], ed])

    for directions in (dirs, scene.sun_dir[None, :]):
        got, want = scene.occluded(points, directions), ref.occluded(points, directions)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    o = np.concatenate([np.repeat(points[:8], len(dirs), axis=0), go, eo, zo, so])
    d = np.concatenate([np.tile(dirs, (8, 1)), gd, ed, zd, sd])
    for got, want in zip(scene.intersect(o, d), ref.intersect(o, d)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert scene.any_hit(o, d).tobytes() == ref.any_hit(o, d).tobytes()
    for got, want in zip(scene.intersect(points[0], dirs), ref.intersect(points[0], dirs)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    hit = fd.trace_hit(scene, o, d)
    assert hit.tobytes() == fd.sphere_trace(ref, o, d).hit.tobytes()
    assert fd.trace_hit(scene, so[0], sd).tobytes() == fd.sphere_trace(ref, so[0], sd).hit.tobytes()

    # each primitive's hits, flat and as points against directions; some
    # lie beyond the unit ball wherever there is a ground plane
    beyond = 0
    for prim in scene.primitives:
        for po, pd in ((o, d), (points[:, None, :], dirs[None, :, :])):
            t = prim.intersect(po, pd)
            got, want = sc._in_ball(po, pd, t), reference_in_ball(po, pd, t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            beyond += int(np.sum(np.isfinite(t) & ~got))
    if any(isinstance(p, sc.GroundPlane) for p in scene.primitives):
        assert beyond > 0
    # around the threshold the near root is taken or passed over (the far
    # root, or a miss); on the ground plane the middle ray's root is 1e-6
    for i, prim in enumerate(scene.primitives):
        t = prim.intersect(zo[9 * i:9 * i + 9], zd[9 * i:9 * i + 9])
        assert 0 < np.sum(t < 1e-5) < 9
        if isinstance(prim, sc.GroundPlane):
            assert zo[9 * i + 4, 2] == 1e-6 and t[4] == np.inf


@pytest.mark.parametrize("name", ["two-sphere", "sphere-plane", "blocker"])
def test_render_ground_truth_matches_the_gathering_oracle_byte_for_byte(name):
    scene = sc.make_scene(name)
    cam = sc.camera_rig(scene, 1, 32, 24, np.random.default_rng(2))[0]
    got = sc.render_ground_truth(scene, cam, quad_level=3)
    want = sc.render_ground_truth(ReferenceScene.of(scene), cam, quad_level=3)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
