"""Learnable SDF and albedo grid fields with NeuS-style volume rendering.

Both fields are dense trilinear grids over the cube [-extent, extent]^3
covering the contracted unit ball. They are read through ``multilinear``,
the one interpolation kernel that every grid in the package shares (the
spherical DDF too). Queries outside the cube take the value at the nearest
boundary point. The SDF carries a single global steepness parameter for the
logistic CDF used by the NeuS weight construction, stored in log space so it
stays positive.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .geometry import WORLD_UP, contract, ray_sphere_exit


def multilinear(grid, u, wrap, spatial_grad=False):
    """Multilinear interpolation of a grid Var at continuous cell coordinates.

    ``grid`` has k interpolated axes, optionally followed by one channel
    axis; ``u`` holds k coordinate arrays (numpy or Var, in cells) of one
    rank whose shapes broadcast. An axis whose ``wrap`` flag is set is
    periodic; any other is clamped to its end nodes. Corners are gathered
    once, in lexicographic order, and each corner weight is the
    left-to-right product of the per-axis weights. The result is
    differentiable in the grid and in Var coordinates. With
    ``spatial_grad`` it holds the k partials along ``u`` (in cell units,
    stacked on a new last axis) instead of the value.
    """
    k = len(u)
    u_np = [v.data if isinstance(v, tp.Var) else np.asarray(v, dtype=np.float64)
            for v in u]
    # flat corner indices, built with the corner axis first so that numpy's
    # inner loops run over the queries
    idx = np.zeros((1,) * (u_np[0].ndim + 1), dtype=np.int64)
    pairs = []
    for n, uj, uj_np, periodic in zip(grid.data.shape, u, u_np, wrap):
        # a non-finite coordinate gathers node 0 and keeps its non-finite
        # weights, so the value is NaN instead of an out-of-range index
        uj_np = np.where(np.isfinite(uj_np), uj_np, 0.0)
        if periodic:
            i0 = np.floor(uj_np).astype(np.int64)
            frac = uj - i0.astype(np.float64)
            ends = (i0 % n, (i0 + 1) % n)
        else:
            i0 = np.minimum(np.floor(np.clip(uj_np, 0.0, n - 1)).astype(np.int64),
                            n - 2)
            frac = tp.minimum(tp.maximum(uj, 0.0), float(n - 1)) - i0.astype(np.float64)
            ends = (i0, i0 + 1)
        idx = idx[:, None] * n + np.stack(ends)
        idx = idx.reshape((2 * idx.shape[0],) + idx.shape[2:])
        pairs.append((1.0 - frac, frac))
    idx = np.ascontiguousarray(np.moveaxis(idx, 0, -1))

    if grid.data.ndim == k:
        vals = tp.take(grid, idx)
    else:
        vals = tp.take_rows(tp.reshape(grid, (-1, grid.data.shape[-1])), idx)

    def combine(factors):
        w = tp.stack_last([functools.reduce(operator.mul, corner)
                           for corner in itertools.product(*factors)])
        if grid.data.ndim == k:
            return tp.vsum(w * vals, axis=-1)
        return tp.vsum(tp.reshape(w, w.data.shape + (1,)) * vals, axis=-2)

    if not spatial_grad:
        return combine(pairs)
    return tp.stack_last([combine(pairs[:j] + [(-1.0, 1.0)] + pairs[j + 1:])
                          for j in range(k)])


def cell_coords(x, resolution, extent):
    """Continuous cell coordinates of points on a grid spanning
    [-extent, extent]^3. Numpy points beyond the unit ball are contracted
    first; Var points are taken as given."""
    if not isinstance(x, tp.Var):
        x = contract(x)
    u = (x + extent) * ((resolution - 1) / (2.0 * extent))
    return [u[..., k] for k in range(3)]


CLAMPED_3D = (False, False, False)


class SdfField:
    """Dense signed-distance grid plus the learnable logistic steepness."""

    def __init__(self, grid, extent=1.0, inv_s=20.0):
        self.grid = np.asarray(grid, dtype=np.float64)
        self.resolution = self.grid.shape[0]
        self.extent = float(extent)
        self.log_inv_s = np.asarray(np.log(inv_s), dtype=np.float64)

    @classmethod
    def sphere_init(cls, resolution=64, extent=1.0, radius=0.1, inv_s=20.0):
        axis = np.linspace(-extent, extent, resolution)
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        grid = np.sqrt(gx * gx + gy * gy + gz * gz) - radius
        return cls(grid, extent=extent, inv_s=inv_s)

    @classmethod
    def from_function(cls, fn, resolution=64, extent=1.0, inv_s=20.0):
        axis = np.linspace(-extent, extent, resolution)
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        return cls(fn(pts).reshape(resolution, resolution, resolution),
                   extent=extent, inv_s=inv_s)

    def sdf_np(self, pts):
        """Plain-numpy trilinear evaluation (sphere tracing, oracles)."""
        u = cell_coords(pts, self.resolution, self.extent)
        return multilinear(tp._lift(self.grid, None), u, CLAMPED_3D).data


class AlbedoField:
    """RGB grid whose raw values map through a sigmoid to [0,1]^3."""

    def __init__(self, grid, extent=1.0):
        self.grid = np.asarray(grid, dtype=np.float64)
        self.resolution = self.grid.shape[0]
        self.extent = float(extent)

    @classmethod
    def constant_init(cls, resolution=64, extent=1.0, value=0.0):
        return cls(np.full((resolution, resolution, resolution, 3), float(value)),
                   extent=extent)


@dataclass
class SceneFields:
    sdf: SdfField
    albedo: AlbedoField

    @classmethod
    def default(cls, resolution=64, extent=1.0):
        return cls(sdf=SdfField.sphere_init(resolution, extent),
                   albedo=AlbedoField.constant_init(resolution, extent))


class BoundFields:
    """Per-tape binding of the scene fields.

    When trainable, the grids become named parameter slots on the tape;
    otherwise they are constants (used by the holdout illumination fit, which
    must see exactly-zero field gradients).
    """

    def __init__(self, tape, fields, trainable=True):
        self.fields = fields
        if trainable:
            self.sdf_grid = tape.parameter("sdf_grid", fields.sdf.grid)
            self.log_inv_s = tape.parameter("sdf_log_inv_s", fields.sdf.log_inv_s)
            self.albedo_grid = tape.parameter("albedo_grid", fields.albedo.grid)
        else:
            self.sdf_grid = tp._lift(fields.sdf.grid, None)
            self.log_inv_s = tp._lift(fields.sdf.log_inv_s, None)
            self.albedo_grid = tp._lift(fields.albedo.grid, None)

    @classmethod
    def from_vars(cls, fields, sdf_grid, log_inv_s, albedo_grid):
        """Bind explicit Vars (gradient checks drive parameters directly)."""
        self = cls.__new__(cls)
        self.fields = fields
        self.sdf_grid = sdf_grid
        self.log_inv_s = log_inv_s
        self.albedo_grid = albedo_grid
        return self

    def inv_s(self):
        return tp.exp(self.log_inv_s)


def sdf_eval(bound, x):
    """Interpolated signed distance at ``x`` (numpy or Var); numpy points
    beyond the unit ball are contracted first, then clamped to the grid."""
    f = bound.fields.sdf
    return multilinear(bound.sdf_grid, cell_coords(x, f.resolution, f.extent),
                       CLAMPED_3D)


def sdf_normals(bound, x_np):
    """Unit normals from the analytic interpolant gradient; returns the
    normals Var plus a mask of degenerate (vanishing-gradient) queries that
    fell back to world-up."""
    f = bound.fields.sdf
    u = cell_coords(x_np, f.resolution, f.extent)
    g = multilinear(bound.sdf_grid, u, CLAMPED_3D, spatial_grad=True) * (
        (f.resolution - 1) / (2.0 * f.extent))
    norm = np.linalg.norm(g.data, axis=-1)
    degen = norm < 1e-8
    n = g / tp.reshape(tp.maximum(tp.norm_last(g), 1e-12), (-1, 1))
    if np.any(degen):
        n = tp.where(degen[:, None], np.broadcast_to(WORLD_UP, n.data.shape), n)
    return n, degen


def albedo_eval(bound, x):
    f = bound.fields.albedo
    raw = multilinear(bound.albedo_grid, cell_coords(x, f.resolution, f.extent),
                      CLAMPED_3D)
    return tp.sigmoid(raw)


def neus_weights(sdf_along_ray, inv_s):
    """NeuS alpha compositing weights from SDF samples along rays.

    ``sdf_along_ray`` is a (rays, samples) Var at strictly increasing sample
    distances; the last sample's alpha is 0. Weights are nonnegative and sum
    to at most 1.
    """
    phi = tp.sigmoid(sdf_along_ray * inv_s)
    phi_cur = phi[:, :-1]
    phi_next = phi[:, 1:]
    alpha = tp.maximum((phi_cur - phi_next) / tp.maximum(phi_cur, 1e-7), 0.0)
    zeros = np.zeros((sdf_along_ray.data.shape[0], 1))
    alpha = tp.concat([alpha, tp._lift(zeros, None)], axis=1)
    trans = tp.exclusive_cumprod_last(1.0 - alpha)
    return alpha * trans


def expected_depth(weights, t, far):
    """Weight-averaged termination depth; rays with ~zero accumulated weight
    report the far bound (documented miss case)."""
    w_sum = tp.vsum(weights, axis=-1)
    t_e = tp.vsum(weights * t, axis=-1) / tp.maximum(w_sum, 1e-6)
    miss = w_sum.data < 1e-6
    if np.any(miss):
        t_e = tp.where(miss, np.broadcast_to(far, t_e.data.shape), t_e)
    return t_e, w_sum


@dataclass
class RaySamples:
    """Stratified samples along a ray batch (Eq.-level bookkeeping)."""

    origins: np.ndarray      # (R,3)
    directions: np.ndarray   # (R,3) unit
    t: np.ndarray            # (R,S) strictly increasing
    far: np.ndarray          # (R,)
    weights: object = None   # Var (R,S) once computed

    @property
    def positions(self):
        return self.origins[:, None, :] + self.t[..., None] * self.directions[:, None, :]


def stratified_samples(origins, directions, n_samples, rng, near=0.02, margin=0.0):
    """Jittered uniform bins from near to each ray's unit-sphere exit."""
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    _, far = ray_sphere_exit(origins, directions, 1.0)
    far = np.maximum(far + margin, near + 1e-3)
    edges = np.linspace(0.0, 1.0, n_samples + 1)
    lo = near + (far[:, None] - near) * edges[:-1]
    hi = near + (far[:, None] - near) * edges[1:]
    u = rng.random((origins.shape[0], n_samples))
    t = lo + (hi - lo) * u
    return RaySamples(origins=origins, directions=directions, t=t, far=far)


@dataclass
class TraceResult:
    hit: np.ndarray        # (N,) bool
    t: np.ndarray          # (N,) distance at hit (or last position)
    converged: np.ndarray  # (N,) False only when max_steps ran out mid-trace


def sphere_trace(sdf_like, origins, dirs, max_steps=128, threshold=1e-4, bound=1.0):
    """Classic sphere tracing against anything exposing ``sdf_np(points)``.

    Serves as the non-differentiable visibility/depth oracle. Rays that leave
    the bound report no-hit with t at the exit distance. Analytic scenes
    (anything that also exposes ``intersect``, which ignores hits outside the
    unit ball) are solved in closed form when the bound is the unit ball:
    marching would only approximate the same roots, at about ten times the
    cost. A ray that starts within ``threshold`` of a surface hits at t = 0
    either way.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = o.shape[0]
    b = 2.0 * np.sum(o * d, axis=-1)
    c = np.sum(o * o, axis=-1) - bound * bound
    disc = np.maximum(b * b - 4.0 * c, 0.0)
    t_exit = np.maximum((-b + np.sqrt(disc)) / 2.0, 0.0)

    if bound == 1.0 and hasattr(sdf_like, "intersect"):
        t_hit, _, hit = sdf_like.intersect(o, d)
        inside = sdf_like.sdf_np(o) < threshold
        t = np.where(inside, 0.0, np.where(hit, t_hit, t_exit))
        return TraceResult(hit=hit | inside, t=t,
                           converged=np.ones(n, dtype=bool))

    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    for _ in range(max_steps):
        if not np.any(active):
            break
        pts = o[active] + t[active, None] * d[active]
        f = sdf_like.sdf_np(pts)
        idx = np.flatnonzero(active)
        newly_hit = f < threshold
        hit[idx[newly_hit]] = True
        active[idx[newly_hit]] = False
        adv = idx[~newly_hit]
        t[adv] += f[~newly_hit]
        escaped = t[adv] > t_exit[adv] + threshold
        if np.any(escaped):
            t[adv[escaped]] = t_exit[adv[escaped]]
            active[adv[escaped]] = False
    converged = ~active
    t[active] = t_exit[active]
    return TraceResult(hit=hit, t=t, converged=converged)
