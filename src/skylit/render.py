"""Per-pixel outgoing radiance: volume weights x albedo x illumination
quadrature x clamped cosine x shared DDF visibility at the expected
termination point, with the distant environment composited behind
unterminated rays.

The hemisphere quadrature carries a 4*pi/D weight so radiance is independent
of the direction count; the Lambertian 1/pi is folded into albedo. With unit
radiance and full visibility a surface therefore shades to pi * albedo.

Each hemisphere's sum over directions of radiance x clamped cosine is one
fused tape op, ``tape.lambert_quadrature``: two ``matmul`` calls forward and
two per gradient, saving only the clamped cosines. A direction exactly
perpendicular to a normal passes that normal no gradient (the tape's
``maximum(expr, 0.0)`` tie convention).
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
    ao: np.ndarray = None  # (H,W) mean upper-hemisphere sky visibility

    @property
    def srgb(self):
        return srgb(self.rgb)


def render_rays(tape, bound_fields, bound_illum, bound_ddf, origins, dirs,
                image_idx, dir_set, jitter, rng, n_samples=64,
                stop_grad_vis=False, near=0.02):
    """Differentiable forward render of a ray batch.

    Returns a dict of Vars: linear color ``rgb``, accumulated weight ``W``,
    expected depth ``t_e``, termination points ``x_e``, the un-normalized
    volume-rendered normals, per-sample weights, and the background radiance
    along each ray. Visibility is evaluated once at x_e and shared by every
    sample on the ray; it is off (every direction visible) when
    ``bound_ddf`` is None.
    """
    origins = np.atleast_2d(origins)
    dirs = np.atleast_2d(dirs)
    n_rays = origins.shape[0]
    samples = fd.stratified_samples(origins, dirs, n_samples, rng, near=near)

    pts = samples.positions.reshape(-1, 3)
    f = tp.reshape(fd.sdf_eval(bound_fields, pts), samples.t.shape)
    w = fd.neus_weights(f, bound_fields.inv_s())
    t_e, w_sum = fd.expected_depth(w, samples.t, samples.far)
    x_e = tp._lift(origins, None) + tp.reshape(t_e, (-1, 1)) * dirs

    albedo = tp.reshape(fd.albedo_eval(bound_fields, pts), (n_rays, n_samples, 3))
    normals, _ = fd.sdf_normals(bound_fields, pts)
    normals = tp.reshape(normals, (n_rays, n_samples, 3))

    d_world = dir_set.directions @ np.asarray(jitter).T
    upper = d_world[:, 2] >= 0.0
    quad_scale = 4.0 * np.pi / dir_set.count

    def hemi_irradiance(d_sub, vis):
        radiance = tp.take_rows(bound_illum.radiance_all(d_sub), image_idx)
        if vis is not None:
            radiance = radiance * tp.reshape(vis, vis.data.shape + (1,))
        return tp.lambert_quadrature(normals, d_sub, radiance)

    irr = None
    if np.any(upper):
        vis = None
        if bound_ddf is not None:
            vis = vz.soft_visibility(
                bound_ddf, tp.reshape(x_e, (n_rays, 1, 3)),
                d_world[upper][None, :, :], stop_grad=stop_grad_vis,
            )
        irr = hemi_irradiance(d_world[upper], vis)
    if np.any(~upper):
        lower = hemi_irradiance(d_world[~upper], None)
        irr = lower if irr is None else irr + lower
    irr = irr * quad_scale

    w3 = tp.reshape(w, (n_rays, n_samples, 1))
    c_scene = tp.vsum(w3 * (albedo * irr), axis=1)
    background = bound_illum.radiance_rows(dirs, image_idx)
    rgb = c_scene + tp.reshape(1.0 - w_sum, (-1, 1)) * background

    return {
        "rgb": rgb,
        "W": w_sum,
        "t_e": t_e,
        "x_e": x_e,
        "weights": w,
        "samples": samples,
        "albedo_samples": albedo,
        "normal_samples": normals,
        "weighted_normals": tp.vsum(w3 * normals, axis=1),
        "weighted_albedo": tp.vsum(w3 * albedo, axis=1),
        "background": background,
    }


def render_image(camera, scene_fields, state, ddf=None, params=None,
                 dir_level=3, n_samples=64, seed=0, with_ao=False, chunk=2048):
    """Full-frame inference render; deterministic under a fixed seed.
    Visibility is off when no ``ddf`` is passed (``ao`` then stays zero)."""
    rng = np.random.default_rng(seed)
    dir_set = icosphere_directions(dir_level)
    pixels = camera.all_pixels()
    n_px = pixels.shape[0]
    bank = il.IlluminationBank(state.decoder, 1)
    bank.Z[0] = state.Z
    bank.log_gamma[0] = np.asarray(state.log_gamma).reshape(())

    rgb = np.zeros((n_px, 3))
    alb = np.zeros((n_px, 3))
    nrm = np.zeros((n_px, 3))
    dep = np.zeros(n_px)
    acc = np.zeros(n_px)
    ao = np.zeros(n_px) if with_ao else None
    jitter = np.eye(3)
    # constants without a tape: no op records a node or keeps its inputs
    bf = fd.BoundFields(None, scene_fields, trainable=False)
    bi = il.BoundIllumination(None, bank, trainable=False)
    bd = None if ddf is None else vz.BoundDdf(None, ddf, params, trainable=False)

    for lo in range(0, n_px, chunk):
        px = pixels[lo:lo + chunk]
        ray_d = camera.ray_dirs(px)
        ray_o = np.broadcast_to(camera.origin, ray_d.shape)
        out = render_rays(
            None, bf, bi, bd, ray_o, ray_d, np.zeros(len(px), dtype=np.int64),
            dir_set, jitter, rng, n_samples=n_samples,
        )
        sl = slice(lo, lo + len(px))
        rgb[sl] = out["rgb"].data
        acc[sl] = out["W"].data
        dep[sl] = out["t_e"].data
        wsafe = np.maximum(out["W"].data, 1e-6)[:, None]
        alb[sl] = out["weighted_albedo"].data / wsafe
        raw_n = out["weighted_normals"].data
        nrm[sl] = raw_n / np.maximum(np.linalg.norm(raw_n, axis=1, keepdims=True), 1e-9)
        if with_ao and bd is not None:
            ao[sl] = vz.ambient_occlusion(bd, out["x_e"].data).data

    shape = (camera.height, camera.width)
    return RenderOutput(
        rgb=rgb.reshape(shape + (3,)),
        albedo=alb.reshape(shape + (3,)),
        normal=nrm.reshape(shape + (3,)),
        depth=dep.reshape(shape),
        weight=acc.reshape(shape),
        ao=ao.reshape(shape) if with_ao else None,
    )
