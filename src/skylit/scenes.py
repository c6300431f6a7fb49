"""Synthetic scenes with closed-form geometry, exact Lambertian ground truth,
binary shadows, and dataset generation/loading.

Scenes keep every primitive inside the unit ball with all surfaces at z >= 0
(ground plane at z = 0), so outside-in visibility queries always exit through
the upper hemisphere. The ground-truth renderer follows the same shading
convention as the model (albedo absorbs the Lambertian 1/pi; lower-hemisphere
directions are treated as visible with the environment supplying ground
bounce), so a perfect fit is attainable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import fileio
from .cameras import Camera
from .geometry import ConfigError, icosphere_directions, normalize, srgb
from .illumination import IlluminationBank, LobeDecoder, radiance

CLASS_SKY = 0
CLASS_GROUND = 1
CLASS_FOREGROUND = 2
CLASS_TRANSIENT = 3

_EPS = 1e-6


def _quadratic(o, d, center, radius):
    """b, c and the discriminant b^2 - 4c of |o + t d - center|^2 =
    radius^2, for unit d, with each dot product's components summed in
    np.sum's order, (x0 + x1) + x2, and no trailing axis: the same bits for
    flat rays, for gathered rows and for points (N,1,3) against directions
    (1,D,3), where c is computed once per point."""
    oc = o - center
    b = 2.0 * (oc[..., 0] * d[..., 0] + oc[..., 1] * d[..., 1] + oc[..., 2] * d[..., 2])
    c = (oc[..., 0] * oc[..., 0] + oc[..., 1] * oc[..., 1]
         + oc[..., 2] * oc[..., 2]) - radius**2
    return b, c, b * b - 4.0 * c


def _meets_ahead(o, d, center, radius):
    """Whether each ray's line meets the sphere (center, radius) with a
    root ahead of the origin: a positive discriminant, and the center ahead
    (b < 0) or the origin inside (c < 0). A root beyond 1e-6, the least a
    hit may have, needs both by a margin far above rounding."""
    b, c, disc = _quadratic(o, d, center, radius)
    return (disc > 0.0) & ((b < 0.0) | (c < 0.0))


@dataclass
class Sphere:
    center: np.ndarray
    radius: float
    albedo: np.ndarray
    cls: int = CLASS_FOREGROUND

    def sdf(self, pts):
        return np.linalg.norm(pts - self.center, axis=-1) - self.radius

    def candidates(self, o, d):
        """The rays that meet the sphere ahead: ``intersect`` hits no other."""
        return _meets_ahead(o, d, self.center, self.radius)

    def intersect(self, o, d):
        b, _, disc = _quadratic(o, d, self.center, self.radius)
        hit = disc > 0.0
        root = np.sqrt(np.maximum(disc, 0.0))
        t0 = (-b - root) / 2.0
        t1 = (-b + root) / 2.0
        t = np.where(t0 > _EPS, t0, t1)
        t = np.where(hit & (t > _EPS), t, np.inf)
        return t

    def normal(self, pts):
        return normalize(pts - self.center)


@dataclass
class Box:
    center: np.ndarray
    half_extents: np.ndarray
    albedo: np.ndarray
    cls: int = CLASS_FOREGROUND

    def sdf(self, pts):
        q = np.abs(pts - self.center) - self.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside

    def candidates(self, o, d):
        """The rays that meet the box's bounding sphere ahead, its radius
        widened by a millionth so that rounding cannot drop a hit: every hit
        of ``intersect`` inside the unit ball is among them."""
        radius = float(np.linalg.norm(self.half_extents)) * (1.0 + 1e-6)
        return _meets_ahead(o, d, self.center, radius)

    def intersect(self, o, d):
        # slab test one axis at a time, so no temporary carries a trailing 3
        t_near, t_far = -np.inf, np.inf
        for k in range(3):
            dk = np.where(np.abs(d[..., k]) < 1e-12, 1e-12, d[..., k])
            lo = (self.center[k] - self.half_extents[k] - o[..., k]) / dk
            hi = (self.center[k] + self.half_extents[k] - o[..., k]) / dk
            t_near = np.maximum(t_near, np.minimum(lo, hi))
            t_far = np.minimum(t_far, np.maximum(lo, hi))
        hit = (t_far > np.maximum(t_near, _EPS))
        t = np.where(t_near > _EPS, t_near, t_far)
        return np.where(hit & (t > _EPS), t, np.inf)

    def normal(self, pts):
        rel = (pts - self.center) / self.half_extents
        axis = np.argmax(np.abs(rel), axis=-1)
        n = np.zeros_like(rel)
        n[np.arange(len(rel)), axis] = np.sign(rel[np.arange(len(rel)), axis])
        return n


@dataclass
class GroundPlane:
    level: float
    albedo: np.ndarray
    cls: int = CLASS_GROUND

    def sdf(self, pts):
        return pts[..., 2] - self.level

    def candidates(self, o, d):
        """The rays from off the plane that head toward it: ``intersect``
        hits no other."""
        dz, oz = d[..., 2], o[..., 2]
        return ((oz > self.level) & (dz < -1e-12)) | ((oz < self.level) & (dz > 1e-12))

    def intersect(self, o, d):
        dz = d[..., 2]
        safe = np.where(np.abs(dz) < 1e-12, 1e-12, dz)
        t = (self.level - o[..., 2]) / safe
        return np.where((np.abs(dz) > 1e-12) & (t > _EPS), t, np.inf)

    def normal(self, pts):
        n = np.zeros(pts.shape)
        n[..., 2] = 1.0
        return n


def _in_ball(o, d, t):
    """Where the ray distances ``t`` (inf for a miss) are hits inside the
    unit ball: |o + t d| <= 1, the norm's squares summed in np.sum's order.
    o and d broadcast against ``t`` with a trailing axis of 3; the point is
    computed component by component for every ray, with no gather. A miss
    compares inf, or NaN where inf meets a zero component, and is False."""
    with np.errstate(invalid="ignore"):
        x, y, z = (o[..., k] + t * d[..., k] for k in range(3))
        return np.sqrt((x * x + y * y) + z * z) <= 1.0


@dataclass
class CameraRig:
    azimuth_center: float = 0.0
    azimuth_spread: float = np.pi       # +/- around the center
    radius: float = 0.8
    z_range: tuple = (0.28, 0.5)


@dataclass
class SyntheticScene:
    name: str
    primitives: list
    illumination: IlluminationBank  # one row
    sun_dir: np.ndarray
    target: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.1]))
    rig: CameraRig = field(default_factory=CameraRig)

    def sdf_np(self, pts):
        pts = np.atleast_2d(pts)
        return np.min(np.stack([p.sdf(pts) for p in self.primitives]), axis=0)

    def intersect(self, origins, dirs):
        """Nearest hit per ray, origins broadcast against dirs. A
        primitive's hit counts only inside the unit ball (the world beyond
        it is sky). Returns (t, prim_index, hit); t is inf where nothing is
        hit."""
        o = np.atleast_2d(origins)
        d = np.atleast_2d(dirs)
        ts = []
        for prim in self.primitives:
            t = prim.intersect(o, d)
            ts.append(np.where(_in_ball(o, d, t), t, np.inf))
        ts = np.stack(ts)
        t = np.min(ts, axis=0)
        return t, np.argmin(ts, axis=0), np.isfinite(t)

    def any_hit(self, origins, dirs):
        """``intersect``'s ``hit`` alone, origins broadcast against dirs.
        Each primitive tests its ``candidates`` on the inputs as given (points
        (N,1,3) against directions (1,D,3) compute ``c`` once per point) and
        solves for roots only on those rays, gathered flat: most rays from a
        surface point miss most primitives, and a candidate test costs about
        half a root solve. Offset points off their surfaces first."""
        o = np.atleast_2d(origins)
        d = np.atleast_2d(dirs)
        o_all, d_all = np.broadcast_arrays(o, d)
        hit = np.zeros(o_all.shape[:-1], dtype=bool)
        for prim in self.primitives:
            cand = prim.candidates(o, d)
            oi, di = o_all[cand], d_all[cand]
            hit[cand] |= _in_ball(oi, di, prim.intersect(oi, di))
        return hit

    def surface_info(self, prim_idx, pts):
        normals = np.zeros_like(pts)
        albedo = np.zeros_like(pts)
        classes = np.zeros(len(pts), dtype=np.uint8)
        for i, prim in enumerate(self.primitives):
            sel = prim_idx == i
            if not np.any(sel):
                continue
            normals[sel] = prim.normal(pts[sel])
            albedo[sel] = prim.albedo
            classes[sel] = prim.cls
        return normals, albedo, classes

    def albedo_at(self, pts):
        """Ground-truth albedo at points, by nearest primitive."""
        pts = np.atleast_2d(pts)
        d = np.stack([np.abs(p.sdf(pts)) for p in self.primitives])
        idx = np.argmin(d, axis=0)
        out = np.zeros_like(pts)
        for i, prim in enumerate(self.primitives):
            out[idx == i] = prim.albedo
        return out


def _sun_sky(decoder, rng, sun_lobe, sun_log_amp=(2.3, 2.1, 1.8)):
    # lighting from above: the lobes over the horizon drawn around 0.2
    z = 0.2 * (decoder.axes[:, 2] > 0) + 0.15 * rng.normal(size=(3, decoder.n_lobes))
    z[:, sun_lobe] += np.asarray(sun_log_amp)
    return IlluminationBank(decoder, z[None], [0.0]), decoder.axes[sun_lobe].copy()


def make_scene(name, seed=0):
    """Shipped analytic scenes: 'two-sphere', 'sphere-plane', 'blocker'."""
    rng = np.random.default_rng(seed + 1000)
    decoder = LobeDecoder.default()
    if name == "two-sphere":
        sky, sun = _sun_sky(decoder, rng, sun_lobe=1)
        prims = [
            Sphere(np.array([-0.22, 0.0, 0.2]), 0.17, np.array([0.75, 0.3, 0.25])),
            Sphere(np.array([0.24, 0.06, 0.26]), 0.21, np.array([0.25, 0.45, 0.8])),
        ]
        return SyntheticScene(name, prims, sky, sun,
                              target=np.array([0.0, 0.0, 0.2]))
    if name == "sphere-plane":
        sky, sun = _sun_sky(decoder, rng, sun_lobe=1)
        prims = [
            GroundPlane(0.0, np.array([0.62, 0.6, 0.55])),
            Sphere(np.array([0.0, 0.0, 0.24]), 0.16, np.array([0.7, 0.25, 0.2])),
        ]
        return SyntheticScene(name, prims, sky, sun,
                              target=np.array([0.0, 0.0, 0.12]))
    if name == "blocker":
        sky, sun = _sun_sky(decoder, rng, sun_lobe=2,
                                sun_log_amp=(2.6, 2.4, 2.1))
        horiz = sun.copy()
        horiz[2] = 0.0
        horiz = horiz / np.linalg.norm(horiz[:2])
        box_center = horiz * 0.68 + np.array([0.0, 0.0, 0.19])
        box_half = np.array([0.05, 0.18, 0.19])
        assert np.linalg.norm(np.abs(box_center) + box_half) < 1.0
        prims = [
            GroundPlane(0.0, np.array([0.62, 0.6, 0.55])),
            Box(box_center, box_half, np.array([0.4, 0.4, 0.42])),
        ]
        az = float(np.arctan2(box_center[1], box_center[0]))
        rig = CameraRig(azimuth_center=az, azimuth_spread=0.45, radius=0.52,
                        z_range=(0.3, 0.42))
        return SyntheticScene(name, prims, sky, sun,
                              target=np.array([0.05, 0.0, 0.06]), rig=rig)
    raise ValueError(f"unknown scene {name!r}")


def render_ground_truth(scene, camera, quad_level=4):
    """Exact-reference render: closed-form hits, dense fixed quadrature,
    binary per-direction shadows (upper hemisphere only). A direction is
    shadowed when ``SyntheticScene.any_hit`` finds some primitive along it
    inside the unit ball; hits beyond the ball are sky. Returns linear
    image, class map, and the binary sun-shadow mask."""
    quad = icosphere_directions(quad_level).directions
    upper = quad[:, 2] > 0.0
    light = radiance(scene.illumination, 0, quad)

    pixels = camera.all_pixels()
    n_px = pixels.shape[0]
    chunk = 2048  # pixels per pass; bounds the memory
    img = np.zeros((n_px, 3))
    classes = np.zeros(n_px, dtype=np.uint8)
    shadow = np.zeros(n_px, dtype=np.uint8)

    for lo in range(0, n_px, chunk):
        px = pixels[lo:lo + chunk]
        d = camera.ray_dirs(px)
        o = np.broadcast_to(camera.origin, d.shape)
        t, prim_idx, hit = scene.intersect(o, d)
        sl_img = img[lo:lo + chunk]
        if np.any(~hit):
            sl_img[~hit] = radiance(scene.illumination, 0, d[~hit])
        if np.any(hit):
            pts = o[hit] + t[hit, None] * d[hit]
            normals, albedo, cls = scene.surface_info(prim_idx[hit], pts)
            off = pts + 1e-4 * normals
            occ = scene.any_hit(off[:, None, :], quad[upper][None, :, :])
            cos = np.maximum(normals @ quad.T, 0.0)
            cos[:, upper] *= ~occ
            quad_w = 4.0 * np.pi / quad.shape[0]
            irr = quad_w * (cos @ light)
            sl_img[hit] = albedo * irr
            classes[lo:lo + chunk][hit] = cls
            sun_occ = scene.any_hit(off, scene.sun_dir)
            shadow[lo:lo + chunk][hit] = sun_occ.astype(np.uint8)
    shape = (camera.height, camera.width)
    return img.reshape(shape + (3,)), classes.reshape(shape), shadow.reshape(shape)


def camera_rig(scene, n_views, width, height, rng):
    """Cameras on a jittered ring looking at the scene target; viewpoints
    inside a primitive are rejected and regenerated."""
    rig = scene.rig
    cams = []
    tries = 0
    i = 0
    while len(cams) < n_views:
        frac = i / max(n_views - 1, 1) * 2.0 - 1.0
        az = rig.azimuth_center + frac * rig.azimuth_spread \
            + rng.uniform(-0.04, 0.04)
        z = rng.uniform(*rig.z_range)
        r = rig.radius * np.sqrt(max(1.0 - z * z, 0.05))
        eye = np.array([r * np.cos(az), r * np.sin(az), z])
        tries += 1
        if scene.sdf_np(eye[None])[0] < 0.03 and tries < 100 * n_views:
            continue
        cams.append(Camera.look_at(eye, scene.target, width, height))
        i += 1
    return cams


@dataclass
class Dataset:
    """Posed linear images with per-pixel classes, per §-style D = (I,E,K,S)."""

    images: np.ndarray       # (N,H,W,3) linear HDR
    masks: np.ndarray        # (N,H,W) uint8 classes 0..3
    cameras: list
    meta: dict
    shadows: np.ndarray      # (N,H,W) uint8, 1 where the sun is blocked

    @property
    def n_views(self):
        return self.images.shape[0]

    @property
    def height(self):
        return self.images.shape[1]

    @property
    def width(self):
        return self.images.shape[2]

    @property
    def gt_srgb(self):
        if not hasattr(self, "_gt_srgb"):
            self._gt_srgb = srgb(self.images)
        return self._gt_srgb

    def gt_illumination(self, decoder):
        """The sky the views were rendered under, as a one-row bank."""
        z = np.asarray(self.meta["gt_Z"], dtype=np.float64).reshape(1, 3, -1)
        return IlluminationBank(decoder, z, [self.meta["gt_log_gamma"]])


def generate_dataset(scene, n_views, seed, out_dir, width=64, height=48,
                     quad_level=4):
    """Ray-trace ``n_views`` of the scene and write the dataset directory:
    linear PFMs, sRGB PPMs, class PGMs, sun-shadow PGMs, poses, meta.
    A ``quad_level`` outside the icosphere's range is a ConfigError before
    anything is written."""
    icosphere_directions(quad_level)
    rng = np.random.default_rng(seed)
    cams = camera_rig(scene, n_views, width, height, rng)
    os.makedirs(out_dir, exist_ok=True)
    images = np.zeros((n_views, height, width, 3))
    masks = np.zeros((n_views, height, width), dtype=np.uint8)
    shadows = np.zeros((n_views, height, width), dtype=np.uint8)
    for i, cam in enumerate(cams):
        img, cls, shadow = render_ground_truth(scene, cam, quad_level=quad_level)
        images[i] = img
        masks[i] = cls
        shadows[i] = shadow
        fileio.write_pfm(os.path.join(out_dir, f"view_{i:03d}.pfm"), img)
        fileio.write_ppm(os.path.join(out_dir, f"view_{i:03d}.ppm"), srgb(img))
        fileio.write_pgm(os.path.join(out_dir, f"mask_{i:03d}.pgm"), cls)
        fileio.write_pgm(os.path.join(out_dir, f"shadow_{i:03d}.pgm"), shadow)
    fileio.write_pose_file(os.path.join(out_dir, "poses.txt"), cams)
    meta = {
        "scene": scene.name,
        "seed": seed,
        "views": n_views,
        "width": width,
        "height": height,
        "sun_dir": ",".join(f"{x:.17g}" for x in scene.sun_dir),
        "gt_Z": ",".join(f"{x:.17g}" for x in scene.illumination.Z.reshape(-1)),
        "gt_log_gamma": f"{scene.illumination.log_gamma[0]:.17g}",
    }
    fileio.write_config(os.path.join(out_dir, "meta.txt"), meta)
    return Dataset(images=images, masks=masks, cameras=cams, meta=_parse_meta(meta),
                   shadows=shadows)


def _parse_meta(meta):
    """``meta``'s entries with the numbers parsed; ConfigError naming the
    key that is missing or does not parse."""
    def floats(text):
        return np.array([float(x) for x in str(text).split(",")])

    out = dict(meta)
    for key, parse in (("sun_dir", floats), ("gt_Z", floats), ("gt_log_gamma", float),
                       ("views", int), ("width", int), ("height", int), ("seed", int)):
        if key not in meta:
            raise ConfigError(f"no {key!r} entry")
        try:
            out[key] = parse(meta[key])
        except ValueError as exc:
            raise ConfigError(f"{key} = {meta[key]!r} does not parse: {exc}") from exc
    return out


def load_dataset(path):
    """The dataset directory that ``generate_dataset`` writes; ConfigError
    naming ``meta.txt`` and the key when a meta value does not parse, and
    naming the file when an image is damaged or not the size meta gives."""
    meta_path = os.path.join(path, "meta.txt")
    try:
        meta = _parse_meta(fileio.read_config(meta_path))
    except ConfigError as exc:
        raise ConfigError(f"{meta_path}: {exc}") from exc
    n, w, h = meta["views"], meta["width"], meta["height"]
    if min(n, w, h) < 1:
        raise ConfigError(f"{meta_path}: views, width and height must be at "
                          f"least 1, got {n}, {w} and {h}")
    cams = fileio.read_pose_file(os.path.join(path, "poses.txt"), w, h)
    images = np.zeros((n, h, w, 3))
    masks = np.zeros((n, h, w), dtype=np.uint8)
    shadows = np.zeros((n, h, w), dtype=np.uint8)
    for i in range(n):
        for stack, read, name in ((images, fileio.read_pfm, f"view_{i:03d}.pfm"),
                                  (masks, fileio.read_pgm, f"mask_{i:03d}.pgm"),
                                  (shadows, fileio.read_pgm, f"shadow_{i:03d}.pgm")):
            file = os.path.join(path, name)
            image = read(file)
            if image.shape != stack.shape[1:]:
                raise ConfigError(f"{file}: an image of shape {image.shape} where "
                                  f"meta.txt gives {stack.shape[1:]}")
            stack[i] = image
    return Dataset(images=images, masks=masks, cameras=cams, meta=meta,
                   shadows=shadows)
