"""Shared fixtures: synthetic datasets and the fitted/trained models that the
oracle-equivalence tests and the acceptance suite reuse.

The expensive session fixtures (DDF oracle fit, full training runs) are
computed once per session; tests that need them share the same artifacts.
"""

import math
import tracemalloc

import numpy as np
import pytest

from skylit import fields as fd
from skylit import illumination as il
from skylit import losses as ls
from skylit import render as rd
from skylit import scenes as sc
from skylit import tape as tp
from skylit import train as tr
from skylit import visibility as vz
from skylit.fields import sphere_trace
from skylit.geometry import (icosphere_directions, normalize, ray_sphere_exit,
                             sample_sphere, vmf_sample_batch)
from skylit.scenes import generate_dataset, make_scene


@pytest.fixture(scope="session")
def two_sphere_scene():
    return make_scene("two-sphere", seed=0)


@pytest.fixture(scope="session")
def fitted_two_sphere_ddf(two_sphere_scene):
    """DDF fitted to the frozen analytic two-sphere scene with the three
    consistency losses (depth + levelset + multiview).

    Nearly all of the held-out depth error sits in a band of a few degrees
    around the spheres' silhouettes, where trilinear blending mixes hit
    depths with the exit chord; the band's width follows the polar
    direction step. So the direction grid is 48 x 48 (1.9 degree polar
    steps; 12 x 24 left 8.2 degrees and a converged MAE near 0.09). Its 8x
    more cells get 96 positions per step instead of 24; 2500 such steps
    (twice the rays of the old 5000) bring the MAE to about 0.046.
    """
    ddf = vz.DdfField.zero_init((24, 48), (48, 48))
    ddf, _ = tr.fit_ddf_to_scene(
        two_sphere_scene, ddf=ddf, steps=2500, lr=1.5e-2, warmup=150,
        n_positions=96, n_directions=128, multiview_pairs=64,
        w_levelset=3.0, seed=0,
    )
    return ddf


@pytest.fixture(scope="session")
def sphere_plane_dataset(tmp_path_factory):
    scene = make_scene("sphere-plane", seed=0)
    out = tmp_path_factory.mktemp("data") / "sphere-plane"
    return scene, generate_dataset(scene, 20, seed=11, out_dir=str(out),
                                   width=64, height=48, quad_level=3)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    scene = make_scene("sphere-plane", seed=0)
    out = tmp_path_factory.mktemp("data") / "tiny"
    return scene, generate_dataset(scene, 6, seed=3, out_dir=str(out),
                                   width=40, height=30, quad_level=2)


# the CLI tests' training config: 3 steps on a 12^3 SDF grid
CLI_CONFIG = dict(
    steps=3, rays_per_batch=32, samples_per_ray=8, dir_level=0,
    sdf_resolution=12, warmup_steps=1, ddf_pos_res_theta=6,
    ddf_pos_res_phi=12, ddf_dir_res_theta=4, ddf_dir_res_phi=8,
    ddf_directions=16, ddf_multiview_pairs=8,
)


def tiny_train_config(**overrides):
    base = dict(
        steps=60, rays_per_batch=64, samples_per_ray=20, dir_level=1,
        sdf_resolution=20, ddf_pos_res_theta=10, ddf_pos_res_phi=20,
        ddf_dir_res_theta=8, ddf_dir_res_phi=12, warmup_steps=20,
        ddf_refresh_every=20, ddf_directions=32, ddf_multiview_pairs=16,
        seed=0,
    )
    base.update(overrides)
    base["warmup_steps"] = min(base["warmup_steps"], max(base["steps"] // 3, 1))
    return tr.TrainConfig(**base)


@pytest.fixture()
def tiny_trainer(tiny_dataset):
    _, dataset = tiny_dataset
    return tr.Trainer(dataset, tiny_train_config())


def sky_latent(decoder, rng):
    """A sky latent of unit spread about the scenes' sky mean: 0.2 on the
    lobes above the horizon, 0 below."""
    return 0.2 * (decoder.axes[:, 2] > 0) + rng.normal(size=(3, decoder.n_lobes))


def bind_fields(fields, sdf_grid, log_inv_s, albedo_grid):
    """A ``fd.BoundFields`` of explicit Vars, as gradient checks drive the
    parameters directly."""
    bound = fd.BoundFields.__new__(fd.BoundFields)
    bound.fields = fields
    bound.sdf_grid, bound.log_inv_s, bound.albedo_grid = sdf_grid, log_inv_s, albedo_grid
    return bound


def bind_illumination(decoder, z_var, log_gamma_var):
    """An ``il.BoundIllumination`` of explicit Vars."""
    bound = il.BoundIllumination.__new__(il.BoundIllumination)
    bound.decoder, bound.Z, bound.log_gamma = decoder, z_var, log_gamma_var
    return bound


def bind_ddf(ddf, params, grid_var, eps_raw_var):
    """A ``vz.BoundDdf`` of explicit Vars."""
    bound = vz.BoundDdf.__new__(vz.BoundDdf)
    bound.field, bound.params = ddf, params
    bound.grid, bound.eps_raw = grid_var, eps_raw_var
    return bound


def binary_visibility_oracle(sdf_like, x, d):
    """Ground-truth-style binary visibility by sphere tracing.

    Callers must pre-offset x along the surface normal by twice the trace
    threshold (1e-4). Returns (vis in {0,1}, non_converged flag array); rays
    whose trace ran out of steps are treated as occluded and flagged.
    """
    res = sphere_trace(sdf_like, x, d)
    vis = (~res.hit & res.converged).astype(np.float64)
    return vis, ~res.converged


def plane_shading(normal, sky, albedo_raw=0.0, ddf=None, params=None,
                  jitter=None):
    """``render_rays`` on one ray that meets an opaque plane through the
    origin with the given normal (from 0.4 * normal, looking along -normal),
    under row 0 of the bank ``sky``.

    Returns (surface radiance, weighted albedo): the ray's color minus its
    (1 - W) share of background, and the weighted albedo sum_s w_s a_s. A
    trilinear grid holds the plane's linear SDF exactly, so every sample
    has the plane's normal and their ratio is the irradiance that
    ``render_rays``'s 642-direction quadrature gives that normal. Visibility
    is on when ``ddf`` is given, else every direction counts as visible.
    """
    n = normalize(normal)
    sdf = fd.SdfField.from_function(lambda p: p @ n, resolution=8)
    sdf.log_inv_s = np.asarray(np.log(400.0))
    albedo = fd.AlbedoField(np.broadcast_to(albedo_raw, (8, 8, 8, 3)).copy())
    bound_ddf = None if ddf is None else vz.BoundDdf(None, ddf, params,
                                                     trainable=False)
    out = rd.render_rays(
        fd.BoundFields(None, fd.SceneFields(sdf, albedo), trainable=False),
        il.BoundIllumination(None, sky, trainable=False), bound_ddf,
        0.4 * n[None, :], -n[None, :], np.zeros(1, dtype=np.int64),
        dir_set=icosphere_directions(3),
        jitter=np.eye(3) if jitter is None else jitter,
        rng=np.random.default_rng(0), n_samples=32,
    )
    rgb, w, background = (out[k].data[0] for k in ("rgb", "W", "background"))
    return rgb - (1.0 - w) * background, out["weighted_albedo"].data[0]


class TextbookAdam(tr.Adam):
    """Reference optimizer: the textbook Adam update (Kingma & Ba, arXiv
    1412.6980) of every entry of a slot at every step, with dense moments
    ``m[name]`` and ``v[name]`` shaped as the slot. ``tr.Adam`` must give
    its parameters and moments bit for bit. ``new``, the scan that
    ``Adam.step`` hands on, is not needed here."""

    def update(self, name, param, grad, lr, new=None):
        if name not in self.m:
            self.m[name], self.v[name] = np.zeros_like(param), np.zeros_like(param)
        m, v = self.m[name], self.v[name]
        t = self.t.get(name, 0) + 1
        self.t[name] = t
        b1, b2 = self.beta1, self.beta2
        m[...] = b1 * m + (1.0 - b1) * grad
        v[...] = b2 * v + (1.0 - b2) * grad * grad
        param -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + self.eps)


def reference_vmf_sample_batch(mean_dirs, kappa, n_per, rng):
    """Reference for ``geometry.vmf_sample_batch``: the same draws with the
    rotation in vector form, through ``np.cross`` and ``np.sum``. The two
    must agree byte for byte."""
    means = normalize(np.atleast_2d(mean_dirs))
    n = means.shape[0]
    u = rng.random((n, n_per))
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    phi = rng.random((n, n_per)) * 2.0 * np.pi
    r = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    local = np.stack([r * np.cos(phi), r * np.sin(phi), w], axis=-1)
    z = np.array([0.0, 0.0, 1.0])
    axis = np.cross(np.broadcast_to(z, means.shape), means)
    norm_a = np.linalg.norm(axis, axis=1, keepdims=True)
    degenerate = norm_a[:, 0] < 1e-12
    axis = np.where(degenerate[:, None], [1.0, 0.0, 0.0],
                    axis / np.maximum(norm_a, 1e-300))
    angle = np.arccos(np.clip(means[:, 2], -1.0, 1.0))
    c = np.cos(angle)[:, None, None]
    s = np.sin(angle)[:, None, None]
    k = axis[:, None, :]
    rotated = (local * c
               + np.cross(np.broadcast_to(k, local.shape), local) * s
               + k * np.sum(local * k, axis=-1, keepdims=True) * (1.0 - c))
    flip = degenerate & (means[:, 2] < 0)
    if np.any(flip):
        rotated[flip] = local[flip] * np.array([1.0, 1.0, -1.0])
    keep = degenerate & ~flip
    if np.any(keep):
        rotated[keep] = local[keep]
    return rotated


def reference_sample_ddf_batch(sdf_like, rng, n_positions=8, n_directions=128,
                               kappa=20.0):
    """Reference for ``losses.sample_ddf_batch``: the same batch filled one
    position at a time from ``reference_vmf_sample_batch``'s draws, which
    turn every position's uniforms into directions each round, full
    positions included, and traced as flat rays with the positions
    repeated. The two must agree byte for byte."""
    positions = sample_sphere(rng, n_positions, min_z=0.0)
    dirs = np.zeros((n_positions, n_directions, 3))
    filled = np.zeros(n_positions, dtype=np.int64)
    while np.any(filled < n_directions):
        cand = reference_vmf_sample_batch(-positions, kappa, n_directions, rng)
        ok = (np.einsum("pqc,pc->pq", cand, positions) < -1e-6) \
            & (cand[..., 2] <= 0.0)
        for i in np.flatnonzero(filled < n_directions):
            good = cand[i][ok[i]][: n_directions - filled[i]]
            dirs[i, filled[i]:filled[i] + len(good)] = good
            filled[i] += len(good)
    res = sphere_trace(sdf_like, np.repeat(positions, n_directions, axis=0),
                       dirs.reshape(-1, 3))
    shape = (n_positions, n_directions)
    return ls.DdfBatch(positions=positions, directions=dirs,
                       depths=np.clip(res.t, 1e-4, 2.0).reshape(shape),
                       hit=res.hit.reshape(shape))


def reference_in_ball(o, d, t):
    """Reference for ``scenes._in_ball``: o and d broadcast to the rays'
    shape with a trailing axis of 3, the hit points of finite ``t`` gathered
    through boolean masks and their ``np.linalg.norm`` compared with 1. The
    two must agree byte for byte."""
    finite = np.isfinite(t)
    o, d = (np.broadcast_to(a, t.shape + (3,)) for a in (o, d))
    pts = o[finite] + t[finite][:, None] * d[finite]
    inside = np.zeros(t.shape, dtype=bool)
    inside[finite] = np.linalg.norm(pts, axis=-1) <= 1.0
    return inside


class ReferenceScene(sc.SyntheticScene):
    """Reference for ``SyntheticScene.intersect`` and ``any_hit``: every
    primitive solves for its roots on every ray, and ``reference_in_ball``
    tests the hits. ``any_hit`` is ``intersect``'s hit alone, and
    ``occluded`` its hit of every point (N,3) against every direction
    (D,3), which ``any_hit`` gives for points (N,1,3) against directions
    (1,D,3). Built from a scene with ``of``; each must agree byte for byte
    with the scene's own."""

    @classmethod
    def of(cls, scene):
        return cls(scene.name, scene.primitives, scene.illumination,
                   scene.sun_dir, scene.target, scene.rig)

    def intersect(self, origins, dirs):
        o = np.atleast_2d(origins)
        d = np.atleast_2d(dirs)
        if o.shape[0] == 1 and d.shape[0] > 1:
            o = np.broadcast_to(o, d.shape)
        ts = []
        for prim in self.primitives:
            t = prim.intersect(o, d)
            ts.append(np.where(reference_in_ball(o, d, t), t, np.inf))
        ts = np.stack(ts)
        t = np.min(ts, axis=0)
        return t, np.argmin(ts, axis=0), np.isfinite(t)

    def any_hit(self, origins, dirs):
        return self.intersect(origins, dirs)[2]

    def occluded(self, points, dirs):
        o = np.atleast_2d(points)[:, None, :]
        d = np.atleast_2d(dirs)[None, :, :]
        occ = np.zeros((o.shape[0], d.shape[1]), dtype=bool)
        for prim in self.primitives:
            occ |= reference_in_ball(o, d, prim.intersect(o, d))
        return occ


def reference_levelset_loss(batch, bound_ddf, bound_fields):
    """Reference for ``losses.ddf_levelset_loss``: the hit rows read by a
    ``ddf_eval`` of their own, where the term gathers them from the flat
    batch's shared prediction. Value and gradients must agree byte for
    byte, except the DDF grid's in its last bits when the depth term reads
    the same prediction."""
    keep = batch.flat_hit
    s = batch.flat_positions[keep]
    d = batch.flat_directions[keep]
    pred = vz.ddf_eval(bound_ddf, s, d)
    land = tp._lift(s) + tp.reshape(pred, (-1, 1)) * d
    f = fd.sdf_eval(bound_fields, land)
    return tp.vsum(f * f) / max(batch.flat_depths.size, 1)


def reference_sample_multiview_pairs(sdf_like, rng, n_pairs=128, kappa=20.0):
    """Reference for ``losses.sample_multiview_pairs`` (n_pairs >= 1): the
    same rounds, each traced in full by ``sphere_trace``, of which only
    ``hit`` is read. The two must agree byte for byte, rng state included."""
    kept_s1, kept_d1 = [], []
    need = n_pairs
    for _ in range(8):
        if need <= 0:
            break
        s1 = sample_sphere(rng, 2 * need, min_z=0.0)
        cand = vmf_sample_batch(-s1, kappa, 8, rng)
        ok = (np.einsum("pqc,pc->pq", cand, s1) < -1e-6) & (cand[..., 2] <= 0.0)
        valid_row = ok.any(axis=1)
        first = np.argmax(ok, axis=1)
        d1 = cand[np.arange(len(s1)), first]
        s1, d1 = s1[valid_row], d1[valid_row]
        hit = sphere_trace(sdf_like, s1, d1).hit
        kept_s1.append(s1[hit][:need])
        kept_d1.append(d1[hit][:need])
        need -= len(kept_s1[-1])
    s1 = np.concatenate(kept_s1, axis=0)
    d1 = np.concatenate(kept_d1, axis=0)
    return s1, d1, sample_sphere(rng, len(s1))


def dense_render_rays(bound_fields, bound_illum, bound_ddf, origins, dirs,
                      image_idx, *, dir_set, jitter, rng, n_samples=64,
                      stop_grad_vis=False, near=0.02):
    """Reference for ``render_rays``: the same outputs from every sample of
    the dense (rays, samples) grid, shaded or not, with the quadrature built
    from generic ops (einsum, clamp, einsum). Unshaded samples add exact
    zeros, so the two agree up to rounding."""
    origins = np.atleast_2d(origins)
    dirs = np.atleast_2d(dirs)
    n_rays = origins.shape[0]
    samples = fd.stratified_samples(origins, dirs, n_samples, rng, near=near)

    pts = samples.positions.reshape(-1, 3)
    f = tp.reshape(fd.sdf_eval(bound_fields, pts), samples.t.shape)
    w, _ = fd.neus_weights(f, bound_fields.inv_s())
    t_e, w_sum = fd.expected_depth(w, samples.t, samples.far)
    x_e = tp._lift(origins) + tp.reshape(t_e, (-1, 1)) * dirs

    albedo = tp.reshape(fd.albedo_eval(bound_fields, pts), (n_rays, n_samples, 3))
    normals = fd.sdf_normals(bound_fields, pts)
    normals = tp.reshape(normals, (n_rays, n_samples, 3))

    d_world = dir_set.directions @ np.asarray(jitter).T
    upper = d_world[:, 2] > 0.0

    def hemi_irradiance(d_sub, vis):
        radiance = tp.take_rows(bound_illum.radiance_all(d_sub), image_idx)
        if vis is not None:
            radiance = radiance * tp.reshape(vis, vis.data.shape + (1,))
        cos = tp.maximum(tp.einsum2("rsc,uc->rsu", normals, d_sub), 0.0)
        return tp.einsum2("rsu,ruc->rsc", cos, radiance)

    irr = None
    if np.any(upper):
        vis = None
        if bound_ddf is not None and stop_grad_vis:  # constant copies
            fixed = vz.BoundDdf(None, bound_ddf.field, bound_ddf.params, trainable=False)
            vis = vz.soft_visibility(fixed, x_e.data[:, None, :], d_world[upper][None])
        elif bound_ddf is not None:
            vis = vz.soft_visibility(bound_ddf, tp.reshape(x_e, (n_rays, 1, 3)),
                                     d_world[upper][None])
        irr = hemi_irradiance(d_world[upper], vis)
    if np.any(~upper):
        lower = hemi_irradiance(d_world[~upper], None)
        irr = lower if irr is None else irr + lower
    irr = irr * (4.0 * np.pi / dir_set.count)

    w3 = tp.reshape(w, (n_rays, n_samples, 1))
    c_scene = tp.vsum(w3 * (albedo * irr), axis=1)
    background = bound_illum.radiance_rows(dirs, image_idx)
    rgb = c_scene + tp.reshape(1.0 - w_sum, (-1, 1)) * background
    return {
        "rgb": rgb,
        "W": w_sum,
        "t_e": t_e,
        "weights": w,
        "samples": samples,
        "weighted_normals": tp.vsum(w3 * normals, axis=1),
        "weighted_albedo": tp.vsum(w3 * albedo, axis=1),
        "background": background,
    }


def exit_point(x, d):
    """Differentiable smallest-nonnegative-root unit-sphere intersection of
    rays x + t d for directions ``d``, an array with no gradient; returns
    (s, t). Broadcasts over leading axes.

    Two tape nodes: t, from the quadratic in closed form (its gradient
    recomputes the roots; a root clamped to 0, a tangent ray and the
    discriminant's clamp pass gradient as ``maximum``/``sqrt`` would), and
    s = x + t d. ``chain_soft_visibility`` builds on it.
    """
    x, d = tp._lift(x), np.asarray(d, dtype=np.float64)
    xd = x.data
    t_np = ray_sphere_exit(xd, d).t

    def vjp_x(g):
        q = ray_sphere_exit(xd, d)
        g_t = g * (q.t > 0.0)
        g_b = -0.5 * g_t
        with np.errstate(divide="ignore", invalid="ignore"):
            g_disc = np.where(q.root > 0.0,
                              np.where(q.near, -0.25, 0.25) * g_t / q.root, 0.0)
        g_b = g_b + 2.0 * q.b * g_disc
        g_c = -4.0 * g_disc
        return (2.0 * g_b)[..., None] * d + (2.0 * g_c)[..., None] * xd

    t = tp._node("exit_t", t_np, (x,), (vjp_x,))
    s = tp._node("exit_s", xd + t_np[..., None] * d, (x, t),
                 (lambda g: g,
                  lambda g: g[..., 0] * d[..., 0] + g[..., 1] * d[..., 1]
                  + g[..., 2] * d[..., 2]))
    return s, t


def chain_soft_visibility(bound, x, d):
    """Reference for ``visibility.soft_visibility``: the same soft
    visibility composed of separate nodes (``exit_point``, the depth node
    ``ddf_eval``, then the sigmoid comparison), each VJP recomputing what it
    needs. Both read the DDF through the same read (``visibility._DdfRead``),
    but the fused node's closed-form coefficients round differently from the
    chain of VJPs, so the two agree up to rounding."""
    d = np.asarray(d, dtype=np.float64)
    s, t = exit_point(x, d)
    depth = vz.ddf_eval(bound, s, -d)
    eps = bound.epsilon()
    v = 1.0 - tp.sigmoid(vz.ETA * (t - depth - eps))
    lower = np.broadcast_to(d[..., 2], v.data.shape) <= 0.0
    if np.any(lower):
        v = tp.where(lower, np.ones(v.data.shape), v)
    return v


def reference_lambert_quadrature(normals, dirs, radiance, ray):
    """Reference for ``tape.lambert_quadrature``: the same blocks of
    ``tape.LAMBERT_BLOCK`` cosines and forward pass, with two VJPs that each
    recompute every block's cosines and pad the output adjoint on their
    own. Value and adjoints must agree byte for byte with the op's single
    backward pass."""
    normals, radiance = tp._lift(normals), tp._lift(radiance)
    d = np.asarray(dirs, dtype=np.float64)
    n, rad = normals.data, radiance.data
    ray = np.asarray(ray, dtype=np.int64)
    n_rays, n_dirs = rad.shape[0], d.shape[0]
    counts = np.bincount(ray, minlength=n_rays)
    start = np.concatenate([[0], np.cumsum(counts)])
    slot = np.arange(ray.size) - start[ray]
    blocks = []
    per_ray = counts.tolist()
    lo = 0
    while lo < n_rays:
        hi, m = lo + 1, per_ray[lo]
        while (hi < n_rays
               and (hi + 1 - lo) * max(m, per_ray[hi]) * n_dirs <= tp.LAMBERT_BLOCK):
            m = max(m, per_ray[hi])
            hi += 1
        rows = slice(start[lo], start[hi])
        blocks.append((slice(lo, hi), rows, (ray[rows] - lo) * m + slot[rows],
                       (hi - lo, m)))
        lo = hi

    def pad(x, rows, flat, shape):
        buf = np.zeros(shape + x.shape[-1:])
        buf.reshape(-1, x.shape[-1])[flat] = x[rows]
        return buf

    def dots(rows, flat, shape):
        return pad(n, rows, flat, shape) @ d.T

    out = np.empty((ray.size, rad.shape[-1]))
    for b, rows, flat, shape in blocks:
        cos = dots(rows, flat, shape)
        np.maximum(cos, 0.0, out=cos)
        out[rows] = (cos @ rad[b]).reshape(-1, out.shape[-1])[flat]

    def vjp_normals(g):
        g_n = np.empty(n.shape)
        for b, rows, flat, shape in blocks:
            g_cos = pad(g, rows, flat, shape) @ rad[b].transpose(0, 2, 1)
            g_cos *= dots(rows, flat, shape) > 0.0
            g_n[rows] = (g_cos @ d).reshape(-1, 3)[flat]
        return g_n

    def vjp_radiance(g):
        g_r = np.empty(rad.shape)
        for b, rows, flat, shape in blocks:
            cos = dots(rows, flat, shape)
            np.maximum(cos, 0.0, out=cos)
            np.matmul(cos.transpose(0, 2, 1), pad(g, rows, flat, shape), out=g_r[b])
        return g_r

    return tp._node("lambert", out, (normals, radiance), (vjp_normals, vjp_radiance))


def reference_corner_index(shape, coords, wrap):
    """Reference for ``fields._corner_index``: every lower node in floats
    until one cast, a wrapped axis reduced by the float remainder at any
    size. Indices (dtype included) and fractions must agree byte for byte
    with the op's integer remainder inside its guard."""
    k = len(coords)
    dtype = np.int32 if math.prod(shape) < 2**31 else np.int64
    idx = np.zeros((1,) * (coords[0].ndim + 1), dtype=dtype)
    fracs = []
    for j, (n, uj, periodic) in enumerate(zip(shape, coords, wrap)):
        if periodic:
            lo = np.floor(np.where(np.isfinite(uj), uj, 0.0))
            frac = uj - lo
            lo %= n
            ends = np.stack((lo, np.where(lo == n - 1, 0.0, lo + 1.0)))
        else:
            lo = np.minimum(np.floor(np.clip(np.where(np.isnan(uj), 0.0, uj),
                                             0.0, n - 1)), n - 2)
            frac = np.minimum(np.maximum(uj, 0.0), float(n - 1)) - lo
            ends = np.stack((lo, lo + 1.0))
        idx = idx[:, None] + ends.astype(dtype) * math.prod(shape[j + 1:k])
        idx = idx.reshape((2 * idx.shape[0],) + idx.shape[2:])
        fracs.append(frac)
    return idx, fracs


def reference_to_dense(scatter):
    """Reference for ``tape._Scatter.to_dense``: one ``np.bincount`` over
    every piece's indices (as intp) and values, concatenated in list order,
    cast to float64, plus the dense term. Must agree byte for byte with the
    in-place densify."""
    buf = np.bincount(np.concatenate(scatter.index).astype(np.intp),
                      weights=np.concatenate(scatter.values),
                      minlength=math.prod(scatter.shape))
    buf = buf.astype(np.float64).reshape(scatter.shape)
    if scatter.dense is not None:
        buf += scatter.dense
    return buf


def reference_from_function(fn, resolution):
    """Reference for ``fields.SdfField.from_function``'s grid: ``fn`` called
    once on the (N, 3) stack of every node, from the same ``np.linspace``
    axis. Must agree byte for byte with the slab-by-slab sampling."""
    axis = np.linspace(-1.0, 1.0, resolution)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return fn(pts.reshape(-1, 3)).reshape((resolution,) * 3)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory that numpy and Python
    allocate during the call, in bytes, as tracemalloc counts it: blocks
    allocated before the call are not counted, so the peak is the call's
    own and does not depend on the allocator's state."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
