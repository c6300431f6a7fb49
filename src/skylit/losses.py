"""Every loss term as a pure differentiable function of batch data and fields.

Each term is the mean over the batch it is passed: its sum divided once by
the batch's count, which each docstring names, so callers only weight and
add. Entries a term skips (a miss ray, a dropped sky ray, an invalid pair,
a degenerate normal) still count and add 0. The mean of an empty batch is
an on-tape zero: the term runs the same path on the empty set and divides
by max(n, 1), so ``backward`` gives all-zero gradients instead of failing.
Every term is zero exactly at its documented fixed points. The epsilon
anneal acts on one scalar and has no batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
from .fields import sdf_eval, sphere_trace, trace_hit
from .geometry import (SRGB_LINEAR_KNEE, _vmf_draws, _vmf_rotate, normalize,
                       ray_sphere_exit, sample_sphere, vmf_sample_batch)
from .visibility import BoundDdf, _ddf_read, _depth_node, ddf_eval


def tonemap(linear):
    """Differentiable sRGB transfer with a straight-through [0,1] clamp.

    Values match `geometry.srgb` exactly; the clamp passes its gradient
    through so over-exposed predictions keep a restoring force toward any
    darker ground truth (a hard clamp would silence them forever: at
    initialization the composited render exceeds 1 almost everywhere).
    """
    x = tp.clip01_straight_through(linear)
    lo = 12.92 * x
    hi = 1.055 * tp.power(tp.maximum(x, 1e-6), 1.0 / 2.4) - 0.055
    return tp.where(x.data <= SRGB_LINEAR_KNEE, lo, hi)


def color_error(pred_srgb, gt_srgb):
    """Per-ray L1 plus cosine (hue) error, summed over the batch; the terms
    that use it divide the sum by their ray count."""
    gt = np.asarray(gt_srgb, dtype=np.float64)
    diff = tp.absolute(pred_srgb - gt)
    l1 = tp.vsum(diff)
    pred_norm = tp.norm_last(pred_srgb)
    gt_norm = np.linalg.norm(gt, axis=-1)
    degenerate = (pred_norm.data < 1e-6) | (gt_norm < 1e-6)
    denom = tp.maximum(pred_norm * gt_norm, 1e-12)
    cos_sim = tp.vsum(pred_srgb * gt, axis=-1) / denom
    cos_term = tp.where(degenerate, np.zeros(cos_sim.data.shape), 1.0 - cos_sim)
    return l1 + tp.vsum(cos_term)


def appearance_loss(pred_linear, gt_srgb):
    """Tonemapped L1 + cosine appearance error, the mean over the rays."""
    return color_error(tonemap(pred_linear), gt_srgb) / max(pred_linear.shape[0], 1)


def sky_loss(sky_linear, gt_srgb, accumulated_weight):
    """Sky-pixel color error plus binary cross entropy on accumulated density.

    ``sky_linear`` is the illumination radiance along each sky ray (linear
    HDR); the color error reuses the appearance error on its tonemapped
    value. The BCE term is -log(1 - W) with W clamped below 1. The mean over
    the sky rays of both together.
    """
    color = color_error(tonemap(sky_linear), gt_srgb)
    w = tp.minimum(tp.maximum(accumulated_weight, 0.0), 1.0 - 1e-6)
    bce = -tp.vsum(tp.log(1.0 - w))
    return (color + bce) / max(sky_linear.shape[0], 1)


@dataclass
class DdfBatch:
    """Supervision samples for the DDF: sphere positions, inward sky-side
    directions per position, pseudo-ground-truth depths, and the hit mask
    (rays that left the scene carry the full chord as depth; the surface
    losses only apply where a surface actually exists)."""

    positions: np.ndarray   # (P,3) unit
    directions: np.ndarray  # (P,Q,3) unit, inward, d_z <= 0
    depths: np.ndarray      # (P,Q) in (0,2]
    hit: np.ndarray         # (P,Q) bool
    # (grid Var, visibility._DdfRead): ddf_depth_loss's read of the flat
    # batch through the binding whose grid that is, for ddf_levelset_loss
    _read: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def flat_positions(self):
        q = self.directions.shape[1]
        return np.repeat(self.positions, q, axis=0)

    @property
    def flat_directions(self):
        return self.directions.reshape(-1, 3)

    @property
    def flat_depths(self):
        return self.depths.reshape(-1)

    @property
    def flat_hit(self):
        return self.hit.reshape(-1)


def _as_items(vectors):
    """A view of contiguous (..., 3) float vectors as (...) items of their
    bytes: a masked copy then moves whole vectors, where on (..., 3) floats
    it goes entry by entry, about ten times slower."""
    return vectors.view(np.dtype((np.void, 3 * vectors.itemsize)))[..., 0]


def sample_ddf_batch(sdf_like, rng, n_positions=8, n_directions=128,
                     kappa=20.0, min_z=0.0):
    """Draw the paper-style DDF batch: positions uniform on the upper
    hemisphere, directions vMF-concentrated toward the scene center,
    rejected to inward and sky-side, with sphere-traced depths.

    Each rejection round draws ``n_directions`` vMF candidates' uniforms for
    every position, full ones included, so that the draws do not depend on
    how the rounds went; only the positions still filling turn theirs into
    directions (``geometry._vmf_rotate``, row by row the same bits).

    ``min_z`` must lie in [0, 1): a position below the horizon has few or no
    directions that are both inward and sky-side, and the rejection loop
    would never fill it."""
    if not 0.0 <= min_z < 1.0:
        raise ValueError(f"min_z must be in [0, 1), got {min_z!r}")
    positions = sample_sphere(rng, n_positions, min_z=min_z)
    means = normalize(-positions)
    dirs = np.zeros((n_positions, n_directions, 3))
    filled = np.zeros(n_positions, dtype=np.int64)
    place = np.arange(n_directions)
    while np.any(filled < n_directions):
        u, v = _vmf_draws(rng, n_positions, n_directions)
        rows = np.flatnonzero(filled < n_directions)
        cand = _vmf_rotate(means[rows], kappa, u[rows], v[rows])
        ok = (np.einsum("pqc,pc->pq", cand, positions[rows]) < -1e-6) \
            & (cand[..., 2] <= 0.0)
        # each filling position's accepted candidates, in draw order, fill
        # its free places from ``filled`` on, as many as fit: one masked
        # copy, whose row-major order keeps each position's candidates in
        # its own row (a full position's range of places is empty)
        room = n_directions - filled[rows]
        rank = np.cumsum(ok, axis=1)
        take = ok & (rank <= room[:, None])
        end = filled.copy()
        end[rows] += np.minimum(rank[:, -1], room)
        free = (place >= filled[:, None]) & (place < end[:, None])
        _as_items(dirs)[free] = _as_items(cand)[take]
        filled = end
    depths, hit = trace_depths(sdf_like, positions, dirs)
    return DdfBatch(positions=positions, directions=dirs, depths=depths, hit=hit)


def trace_depths(sdf_like, positions, directions):
    """Sphere-traced pseudo-ground-truth (depths, hit), each (P,Q), of the
    rays from positions (P,3) along directions (P,Q,3); rays that miss get
    the full chord to the sphere exit so depths stay in (0,2]. Each position
    is traced as one origin (P,1,3) against its Q directions, never
    repeated per ray."""
    res = sphere_trace(sdf_like, positions[:, None, :], directions)
    return np.clip(res.t, 1e-4, 2.0), res.hit


def ddf_depth_loss(batch, bound_ddf):
    """Mean of |traced depth - predicted depth| over the batch's rays. The
    batch keeps this DDF read (``DdfBatch._read``) for ``ddf_levelset_loss``
    through the same binding."""
    s, read = _ddf_read(bound_ddf, batch.flat_positions, batch.flat_directions,
                        strict=True)
    batch._read = (bound_ddf.grid, read)
    err = tp.absolute(batch.flat_depths - _depth_node(bound_ddf, s, read))
    return tp.vsum(err) / max(batch.flat_depths.size, 1)


def ddf_levelset_loss(batch, bound_ddf, bound_fields):
    """Walking the predicted depth must land on the SDF zero level set.

    Only rays with an actual surface along them participate (a miss ray has
    no zero crossing, so the term's fixed point would be unsatisfiable), yet
    the squared SDF values are divided by all of the batch's rays: a miss
    counts as 0. Gradients reach both the DDF and the SDF grid.

    The predicted depth is a ``ddf_depth`` node of its own, with its own
    scatter. After ``ddf_depth_loss`` of the same batch through the same
    binding (the same grid Var, so the same grid values: an optimizer step
    binds anew), its hit rows are taken from that loss's read, the same
    bits as a read of those rows alone; otherwise they are read here.
    """
    keep = batch.flat_hit
    s = tp._lift(batch.flat_positions[keep])
    d = batch.flat_directions[keep]
    if batch._read is not None and batch._read[0] is bound_ddf.grid:
        pred = _depth_node(bound_ddf, s, batch._read[1].rows(keep))
    else:
        pred = ddf_eval(bound_ddf, s, d)
    land = s + tp.reshape(pred, (-1, 1)) * d
    f = sdf_eval(bound_fields, land)
    return tp.vsum(f * f) / max(batch.flat_depths.size, 1)


def ddf_multiview_loss(pairs, bound_ddf):
    """Hinge^2 on occlusion consistency: from s2, the predicted depth toward
    a DDF termination point x1 may not exceed the true distance.

    ``pairs`` is (s1 (M,3), d1 (M,3), s2 (M,3)). x1 = s1 + f1 d1 comes from
    the field's stored values (``bound_ddf.field``) and is held constant, so
    the term bounds f2 only: a gradient through f1 would meet the bound by
    pulling x1 toward s1, which biases the depths it is meant to check.
    Pairs with a near-zero baseline or with d2 pointing outward at s2 are
    skipped; the mean is over all the pairs passed.
    """
    s1, d1, s2 = pairs
    source = BoundDdf(None, bound_ddf.field, bound_ddf.params, trainable=False)
    x1 = s1 + ddf_eval(source, s1, d1).data[:, None] * d1
    delta = x1 - s2
    dist = np.linalg.norm(delta, axis=-1)
    d2 = delta / np.maximum(dist, 1e-12)[:, None]
    valid = (dist > 1e-6) & (np.sum(d2 * s2, axis=-1) < -1e-6)
    f2 = ddf_eval(bound_ddf, s2, d2, strict=False)
    hinge = tp.where(valid, tp.maximum(f2 - dist, 0.0), np.zeros(dist.shape))
    return tp.vsum(hinge * hinge) / max(len(s1), 1)


def sample_multiview_pairs(sdf_like, rng, n_pairs=128, kappa=20.0, min_z=0.0):
    """(s1, d1, s2) triples; s1 upper hemisphere with vMF directions like the
    depth batch, restricted to rays that hit the scene (a miss termination
    point is empty space and would assert a false occlusion bound); s2
    uniform over the whole sphere. Up to 8 rounds of candidates; a scene
    that few rays hit can return fewer than ``n_pairs``. ``n_pairs`` = 0
    gives three empty (0,3) arrays and draws nothing."""
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be at least 0, got {n_pairs!r}")
    if n_pairs == 0:
        return np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3))
    kept_s1, kept_d1 = [], []
    need = n_pairs
    for _ in range(8):
        if need <= 0:
            break
        s1 = sample_sphere(rng, 2 * need, min_z=min_z)
        cand = vmf_sample_batch(-s1, kappa, 8, rng)
        ok = (np.einsum("pqc,pc->pq", cand, s1) < -1e-6) & (cand[..., 2] <= 0.0)
        valid_row = ok.any(axis=1)
        first = np.argmax(ok, axis=1)
        d1 = cand[np.arange(len(s1)), first]
        s1, d1 = s1[valid_row], d1[valid_row]
        hit = trace_hit(sdf_like, s1, d1)
        kept_s1.append(s1[hit][:need])
        kept_d1.append(d1[hit][:need])
        need -= len(kept_s1[-1])
    s1 = np.concatenate(kept_s1, axis=0)
    d1 = np.concatenate(kept_d1, axis=0)
    s2 = sample_sphere(rng, len(s1))
    return s1, d1, s2


def ddf_sky_loss(origins, ray_dirs, bound_ddf):
    """Sky rays see no occluder before the sphere, so the DDF looking back
    along them must predict at least the distance to the camera origin.

    Cameras outside the unit sphere are substituted by the ray's entry point;
    rays that miss the sphere entirely are skipped. The mean over all the
    sky rays passed.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    r = np.atleast_2d(np.asarray(ray_dirs, dtype=np.float64))
    q = ray_sphere_exit(o, r)
    outside = q.c > 1e-12
    miss = outside & (q.root == 0.0)
    t_entry = np.where(outside, q.t_near, 0.0)
    t_exit = q.t_far
    keep = ~miss & (t_exit > 1e-9) & (t_entry >= 0.0)
    s = o[keep] + t_exit[keep, None] * r[keep]
    dist = t_exit[keep] - t_entry[keep]
    pred = ddf_eval(bound_ddf, s, -r[keep], strict=False)
    return tp.vsum(tp.maximum(dist - pred, 0.0)) / max(len(o), 1)


def ground_plane_loss(weighted_normals):
    """MonoSDF-style consistency of volume-rendered normals with world-up:
    the mean of ||N - w||_1 + ||1 - N.w||_1 over the ground rays passed;
    degenerate rays (unnormalizable N) add 0."""
    raw = weighted_normals
    norm = np.linalg.norm(raw.data, axis=-1)
    valid = norm > 1e-6
    n = raw / tp.reshape(tp.maximum(tp.norm_last(raw), 1e-12), (-1, 1))
    up = np.array([0.0, 0.0, 1.0])
    l1 = tp.vsum(tp.absolute(n - up), axis=-1)
    align = tp.absolute(1.0 - tp.vsum(n * up, axis=-1))
    per_ray = tp.where(valid, l1 + align, np.zeros(l1.data.shape))
    return tp.vsum(per_ray) / max(raw.shape[0], 1)


def eps_anneal_loss(epsilon):
    """Pull-to-zero on the visibility threshold; the appearance loss brakes
    it once the sigmoid unsaturates, giving the gradual occlusion schedule."""
    return epsilon * epsilon
