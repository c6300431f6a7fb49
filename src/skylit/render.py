"""Per-pixel outgoing radiance: volume weights x albedo x illumination
quadrature x clamped cosine x shared DDF visibility at the expected
termination point, with the distant environment composited behind
unterminated rays.

The hemisphere quadrature carries a 4*pi/D weight so radiance is independent
of the direction count; the Lambertian 1/pi is folded into albedo. With unit
radiance and full visibility a surface therefore shades to pi * albedo.

Only the samples whose NeuS alpha is not 0 are shaded: ``neus_weights``
returns their mask, and every other sample would add exactly 0 to a ray's
color, normal and albedo sums and to their gradients. Albedo, normals and
the quadrature are evaluated at the shaded samples alone, as rows sorted by
ray, and ``tape.sum_by_ray`` adds each ray's rows in sample order.

Each hemisphere's sum over directions of radiance x clamped cosine is one
fused tape op, ``tape.lambert_quadrature``, made of ``matmul`` calls over
cache-sized blocks of whole rays. It saves no cosines; backward recomputes
them block by block, once for the gradients of both the normals and the
radiance. A direction exactly perpendicular to a normal passes that normal
no gradient (the tape's ``maximum(expr, 0.0)`` tie convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as fd
from . import illumination as il
from . import tape as tp
from . import visibility as vz
from .geometry import icosphere_directions, srgb


@dataclass
class RenderOutput:
    """Linear HDR color plus auxiliary per-pixel buffers."""

    rgb: np.ndarray        # (H,W,3) linear, finite, >= 0
    albedo: np.ndarray     # (H,W,3) weight-averaged surface albedo
    normal: np.ndarray     # (H,W,3) volume-rendered unit normal
    depth: np.ndarray      # (H,W) expected termination depth
    weight: np.ndarray     # (H,W) accumulated density in [0,1]

    @property
    def srgb(self):
        return srgb(self.rgb)


def render_rays(bound_fields, bound_illum, bound_ddf, origins, dirs, image_idx,
                *, dir_set, jitter, rng, n_samples=64, stop_grad_vis=False,
                near=0.02):
    """Differentiable forward render of a ray batch.

    Returns a dict: linear color ``rgb``, accumulated weight ``W``, expected
    depth ``t_e``, per-sample weights, the ray ``samples``, the un-normalized
    volume-rendered normals and albedo, the background radiance along
    each ray, and ``vis``, the visibility queries' values (a Var of (rays,
    sky-side directions), or None when no query was made). Visibility is
    evaluated once at the expected termination point x_e and shared by
    every sample on the ray; it is off (every direction visible) when
    ``bound_ddf`` is None. Only sky-side directions (d_z > 0
    after ``jitter``) query it: a direction on or below the horizon is
    visible, as in ``soft_visibility``. With ``stop_grad_vis`` it reads
    constant copies of the DDF and of x_e: no gradient passes visibility.
    """
    origins = np.atleast_2d(origins)
    dirs = np.atleast_2d(dirs)
    n_rays = origins.shape[0]
    samples, w, shaded, t_e, w_sum, x_e = fd.march(bound_fields, origins, dirs, n_samples,
                                                   rng, near=near)

    # the shaded samples as rows, sorted by ray; the rest add exact zeros
    rows = np.flatnonzero(shaded)
    ray = rows // n_samples
    pts = samples.positions[shaded]
    albedo = fd.albedo_eval(bound_fields, pts)
    normals = fd.sdf_normals(bound_fields, pts)
    w_rows = tp.reshape(tp.take_rows(tp.reshape(w, (-1,)), rows), (-1, 1))

    d_world = dir_set.directions @ np.asarray(jitter).T
    upper = d_world[:, 2] > 0.0
    quad_scale = 4.0 * np.pi / dir_set.count

    def hemi_irradiance(d_sub, vis):
        radiance = tp.take_rows(bound_illum.radiance_all(d_sub), image_idx)
        if vis is not None:
            radiance = radiance * tp.reshape(vis, vis.data.shape + (1,))
        return tp.lambert_quadrature(normals, d_sub, radiance, ray)

    irr = vis = None
    if np.any(upper):
        if bound_ddf is not None and stop_grad_vis:
            fixed = vz.BoundDdf(None, bound_ddf.field, bound_ddf.params, trainable=False)
            vis = vz.soft_visibility(fixed, x_e.data[:, None, :], d_world[upper][None])
        elif bound_ddf is not None:
            vis = vz.soft_visibility(bound_ddf, tp.reshape(x_e, (n_rays, 1, 3)),
                                     d_world[upper][None])
        irr = hemi_irradiance(d_world[upper], vis)
    if np.any(~upper):
        lower = hemi_irradiance(d_world[~upper], None)
        irr = lower if irr is None else irr + lower
    irr = irr * quad_scale

    c_scene = tp.sum_by_ray(w_rows * (albedo * irr), ray, n_rays)
    background = bound_illum.radiance_rows(dirs, image_idx)
    rgb = c_scene + tp.reshape(1.0 - w_sum, (-1, 1)) * background

    return {
        "rgb": rgb,
        "W": w_sum,
        "t_e": t_e,
        "weights": w,
        "samples": samples,
        "weighted_normals": tp.sum_by_ray(w_rows * normals, ray, n_rays),
        "weighted_albedo": tp.sum_by_ray(w_rows * albedo, ray, n_rays),
        "background": background,
        "vis": vis,
    }


def render_image(camera, scene_fields, bank, row, ddf=None, params=None,
                 dir_level=3, n_samples=64, seed=0):
    """Full-frame inference render under the bank's sky ``row``;
    deterministic under a fixed seed. Visibility is off when no ``ddf`` is
    passed: every direction is then visible. A ``ddf`` needs its
    ``params`` (ValueError otherwise)."""
    if ddf is not None and params is None:
        raise ValueError("render_image: a ddf needs its visibility params "
                         "(params=VisibilityParams)")
    rng = np.random.default_rng(seed)
    dir_set = icosphere_directions(dir_level)
    pixels = camera.all_pixels()
    n_px = pixels.shape[0]

    rgb = np.zeros((n_px, 3))
    alb = np.zeros((n_px, 3))
    nrm = np.zeros((n_px, 3))
    dep = np.zeros(n_px)
    acc = np.zeros(n_px)
    jitter = np.eye(3)
    # constants without a tape: no op records a node or keeps its inputs
    bf = fd.BoundFields(None, scene_fields, trainable=False)
    bi = il.BoundIllumination(None, bank, trainable=False)
    bd = None if ddf is None else vz.BoundDdf(None, ddf, params, trainable=False)

    chunk = 2048  # pixels per render_rays call; bounds the memory
    for lo in range(0, n_px, chunk):
        px = pixels[lo:lo + chunk]
        ray_d = camera.ray_dirs(px)
        ray_o = np.broadcast_to(camera.origin, ray_d.shape)
        out = render_rays(
            bf, bi, bd, ray_o, ray_d, np.full(len(px), row, dtype=np.int64),
            dir_set=dir_set, jitter=jitter, rng=rng, n_samples=n_samples,
        )
        sl = slice(lo, lo + len(px))
        rgb[sl] = out["rgb"].data
        acc[sl] = out["W"].data
        dep[sl] = out["t_e"].data
        wsafe = np.maximum(out["W"].data, 1e-6)[:, None]
        alb[sl] = out["weighted_albedo"].data / wsafe
        raw_n = out["weighted_normals"].data
        nrm[sl] = raw_n / np.maximum(np.linalg.norm(raw_n, axis=1, keepdims=True), 1e-9)

    shape = (camera.height, camera.width)
    return RenderOutput(
        rgb=rgb.reshape(shape + (3,)),
        albedo=alb.reshape(shape + (3,)),
        normal=nrm.reshape(shape + (3,)),
        depth=dep.reshape(shape),
        weight=acc.reshape(shape),
    )
