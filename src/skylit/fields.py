"""Learnable SDF and albedo grid fields with NeuS-style volume rendering.

Both fields are dense trilinear grids over the cube [-1, 1]^3 around the
unit ball, which holds the whole scene. Every grid, the spherical DDF too,
is read one way (``_grid_read``: one corner gather and a lerp tree for the
value and, if asked, its cell partials), and its adjoint is that tree's
transpose, scattered once (``_grid_scatter``). The tape nodes that call
them are ``multilinear`` and, through ``visibility._DdfRead``,
``visibility.ddf_eval`` and ``visibility.soft_visibility``; the sphere
tracer's ``SdfField.sdf_np`` reads the value alone, with no node. Queries
outside the cube take the value at the nearest boundary point. The SDF
carries a single global steepness parameter for the logistic CDF used by
the NeuS weight construction, stored in log space so it stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .geometry import WORLD_UP, ray_sphere_exit


def _corner_index(shape, coords, wrap):
    """The corners of multilinear lookups on a grid of shape ``shape``
    (interpolated axes first, then at most one channel axis) at k
    cell-coordinate arrays ``coords`` of one rank (their shapes broadcast)
    with per-axis ``wrap`` flags: returns the flat row indices of the
    corner nodes, corner major ((2^k, ...), corners in lexicographic order,
    axis 0 most significant), and the k per-axis fractions. The indices are
    int32 when the grid has fewer than 2^31 entries. A wrapped axis is
    periodic, its lower node reduced by an integer remainder when every
    floor on the axis lies within +-2^30 and by a float one beyond, the
    same node either way; any other axis is clamped to its end nodes (NaN
    stays NaN)."""
    k = len(coords)
    dtype = np.int32 if math.prod(shape) < 2**31 else np.int64
    idx = np.zeros((1,) * (coords[0].ndim + 1), dtype=dtype)
    fracs = []
    for j, (n, uj, periodic) in enumerate(zip(shape, coords, wrap)):
        if periodic:
            # a non-finite coordinate gathers node 0 and keeps its non-finite
            # weights, so the value is NaN instead of an out-of-range index
            lo = np.floor(np.where(np.isfinite(uj), uj, 0.0))
            frac = uj - lo
            # the lower node reduced as an integer, which is cheaper than the
            # float remainder and gives the same node, while every floor
            # fits the index type with room; a farther one stays a float,
            # whose remainder is exact at any size, so the cast cannot
            # overflow
            if -2.0**30 <= lo.min(initial=0.0) and lo.max(initial=0.0) <= 2.0**30:
                lo = lo.astype(dtype)
            lo %= n
            ends = np.stack((lo, np.where(lo == n - 1, 0, lo + 1)))
        else:
            # the lower node in floats until the cast; the clip sends +-inf
            # to the end nodes, and NaN gathers node 0 and keeps a NaN weight
            lo = np.minimum(np.floor(np.clip(np.where(np.isnan(uj), 0.0, uj),
                                             0.0, n - 1)), n - 2)
            frac = np.minimum(np.maximum(uj, 0.0), float(n - 1)) - lo
            ends = np.stack((lo, lo + 1.0))
        # each axis adds its two nodes times its stride in the flat rows
        idx = idx[:, None] + ends.astype(dtype, copy=False) * math.prod(shape[j + 1:k])
        idx = idx.reshape((2 * idx.shape[0],) + idx.shape[2:])
        fracs.append(frac)
    return idx, fracs


def _lerp_tree(vals, fracs, partials):
    """Multilinear value of corner-major corner values ``vals`` (2^k, ...),
    as ``_corner_index`` orders them, at the per-axis ``fracs``: one lerp
    (1 - frac) lo + frac hi per axis, axis 0 first, exact at fractions 0
    and 1. ``vals`` is overwritten. With ``partials`` the k partials along
    the cell coordinates ride along the same tree (each is its axis's
    hi - lo of the value, lerped along the later axes), and the result is
    (k + 1, ...): the value, then the partials in axis order; without, it
    is (1, ...), the same value."""
    rows = vals[None]
    for f in fracs:
        n, half = rows.shape[0], rows.shape[1] // 2
        lo, hi = rows[:, :half], rows[:, half:]
        out = np.empty((n + partials, half) + rows.shape[2:])
        if partials:
            np.subtract(hi[0], lo[0], out=out[n])
        lo *= 1.0 - f
        hi *= f
        np.add(lo, hi, out=out[:n])
        rows = out
    return rows[:, 0]


def _lerp_tree_vjp(g, fracs):
    """Transpose of ``_lerp_tree``: the adjoints of the 2^k corner values,
    corner major, from the adjoints ``g`` of the tree's rows, (1, ...) for
    the value alone or (k + 1, ...) for the value and the partials. One
    level per axis, last axis first, each written into one buffer."""
    partials = g.shape[0] > 1
    g = g[:, None]
    for f in reversed(fracs):
        n = g.shape[0] - partials
        buf = np.empty((n, 2) + g.shape[1:])
        np.multiply(g[:n], 1.0 - f, out=buf[:, 0])
        np.multiply(g[:n], f, out=buf[:, 1])
        if partials:  # the partial born at this level is hi - lo of row 0
            buf[0, 0] -= g[n]
            buf[0, 1] += g[n]
        g = buf.reshape((n, 2 * buf.shape[2]) + buf.shape[3:])
    return g[0]


def _grid_read(grid, coords, wrap, partials):
    """Reads the array ``grid`` (k interpolated axes, then at most one
    channel axis) at k cell-coordinate arrays ``coords``: returns the corner
    indices, the fractions (shaped to broadcast against the channels) and
    the lerp tree over the corners, gathered once."""
    k = len(coords)
    idx, fracs = _corner_index(grid.shape, coords, wrap)
    if grid.ndim > k:
        fracs = [f[..., None] for f in fracs]
    table = grid.reshape((-1,) + grid.shape[k:])
    return idx, fracs, _lerp_tree(np.take(table, idx, axis=0), fracs, partials)


def _grid_scatter(shape, idx, fracs, g):
    """The adjoint of the grid of shape ``shape`` from a ``_grid_read`` (its
    corner indices and fractions) whose tree rows have the adjoints ``g``:
    the tree's transpose, scattered once."""
    if len(shape) > len(fracs):  # one flat entry per corner and channel
        idx = idx[..., None] * shape[-1] + np.arange(shape[-1], dtype=idx.dtype)
    return tp._Scatter(shape, [idx.reshape(-1)], [_lerp_tree_vjp(g, fracs).reshape(-1)])


def multilinear(grid, u, wrap, spatial_grad=False):
    """Multilinear interpolation of a grid Var at continuous cell coordinates.

    ``grid`` has k interpolated axes, optionally followed by one channel
    axis; ``u`` is a sequence of k coordinate arrays or Vars (in cells) of
    one rank whose shapes broadcast. An axis whose ``wrap`` flag is set is
    periodic; any other is clamped to its end nodes (NaN stays NaN). The
    2^k corners are gathered once, corner major, and reduced by one lerp per
    axis (``_lerp_tree``), so a query at a node reads that node's value bit
    for bit. With ``spatial_grad`` the result holds the k partials along
    ``u`` (in cell units, stacked on a new last axis) instead of the value,
    from the same tree.

    One tape node, differentiable in the grid and in Var coordinates. It
    saves the corner indices and the per-axis fractions; the grid's adjoint
    is the tree's transpose, scattered once. With coordinates on a tape the
    tree also computes the partials, which the node keeps: the coordinates'
    adjoint is the output adjoint times them. A clamped coordinate at or
    beyond an end node gets gradient 0, the ``maximum``/``minimum`` tie
    rule. ``spatial_grad`` with coordinates on a tape (a second derivative)
    raises TapeError.
    """
    if any(isinstance(v, tp.Var) for v in u):
        u = tp.stack(list(u), axis=0)  # Var coordinates enter as one parent
    traced = isinstance(u, tp.Var) and (u.tape is not None or bool(u.parents))
    if spatial_grad and traced:
        raise tp.TapeError("multilinear: spatial_grad takes no coordinates on a tape")
    coords = (u.data if isinstance(u, tp.Var)
              else [np.asarray(v, dtype=np.float64) for v in u])
    shape = grid.data.shape
    idx, fracs, tree = _grid_read(grid.data, coords, wrap, spatial_grad or traced)
    out = np.stack(tree[1:], axis=-1) if spatial_grad else tree[0]

    def vjp_grid(g):
        # the tree's rows: the value, then (with spatial_grad) the partials,
        # whose value row gets no adjoint
        rows = (np.concatenate((np.zeros((1,) + g.shape[:-1]), np.moveaxis(g, -1, 0)))
                if spatial_grad else g[None])
        return _grid_scatter(shape, idx, fracs, rows)

    def vjp_coords(g):
        g_u = tree[1:] * g
        if len(shape) > len(coords):  # sum over the channels
            g_u = g_u.sum(axis=-1)
        for j, (n, uj, periodic) in enumerate(zip(shape, coords, wrap)):
            if not periodic:
                g_u[j] *= (uj > 0.0) & (uj < n - 1)
        return g_u

    inputs = (grid, u) if isinstance(u, tp.Var) else (grid,)
    return tp._node("multilinear", out, inputs, (vjp_grid, vjp_coords))


def cell_coords(x, resolution):
    """Continuous cell coordinates of points (numpy or Var) on a grid
    spanning [-1, 1]^3; ``multilinear`` clamps those beyond it."""
    u = (x + 1.0) * ((resolution - 1) / 2.0)
    return [u[..., k] for k in range(3)]


CLAMPED_3D = (False, False, False)


class SdfField:
    """Dense signed-distance grid plus the learnable logistic steepness."""

    def __init__(self, grid, inv_s=20.0):
        self.grid = np.asarray(grid, dtype=np.float64)
        self.resolution = self.grid.shape[0]
        self.log_inv_s = np.asarray(np.log(inv_s), dtype=np.float64)

    @classmethod
    def sphere_init(cls, resolution=64, radius=0.1, inv_s=20.0):
        def sdf(p):
            x, y, z = p.T
            return np.sqrt(x * x + y * y + z * z) - radius
        return cls.from_function(sdf, resolution, inv_s=inv_s)

    @classmethod
    def from_function(cls, fn, resolution=64, inv_s=20.0):
        """Samples ``fn`` (points (N,3) -> (N,)) at the grid nodes, one
        x-slab of n^2 nodes per call into one reused points buffer, so
        ``fn``'s value at a point must not depend on the other points of the
        call, and ``fn`` must not keep the points."""
        n = resolution
        axis = np.linspace(-1.0, 1.0, n)
        grid = np.empty((n, n, n))
        pts = np.empty((n, n, 3))
        pts[..., 1] = axis[:, None]
        pts[..., 2] = axis
        for i in range(n):
            pts[..., 0] = axis[i]
            grid[i] = fn(pts.reshape(-1, 3)).reshape(n, n)
        return cls(grid, inv_s=inv_s)

    def sdf_np(self, pts):
        """Plain-numpy trilinear evaluation (sphere tracing, oracles): the
        grid read alone, with no tape node."""
        u = cell_coords(pts, self.resolution)
        return _grid_read(self.grid, u, CLAMPED_3D, False)[2][0]


class AlbedoField:
    """RGB grid whose raw values map through a sigmoid to [0,1]^3."""

    def __init__(self, grid):
        self.grid = np.asarray(grid, dtype=np.float64)
        self.resolution = self.grid.shape[0]

    @classmethod
    def constant_init(cls, resolution=64, value=0.0):
        return cls(np.full((resolution, resolution, resolution, 3), float(value)))


@dataclass
class SceneFields:
    sdf: SdfField
    albedo: AlbedoField

    @classmethod
    def default(cls, resolution=64):
        return cls(sdf=SdfField.sphere_init(resolution),
                   albedo=AlbedoField.constant_init(resolution))


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
            self.sdf_grid = tp._lift(fields.sdf.grid)
            self.log_inv_s = tp._lift(fields.sdf.log_inv_s)
            self.albedo_grid = tp._lift(fields.albedo.grid)

    def inv_s(self):
        return tp.exp(self.log_inv_s)


def sdf_eval(bound, x):
    """Interpolated signed distance at ``x`` (numpy or Var); points beyond
    the grid's cube read the value at their clamp onto it."""
    return multilinear(bound.sdf_grid, cell_coords(x, bound.fields.sdf.resolution),
                       CLAMPED_3D)


def sdf_normals(bound, x_np):
    """Unit normals from the analytic interpolant gradient, a Var; a query
    whose gradient vanishes falls back to world-up."""
    res = bound.fields.sdf.resolution
    g = multilinear(bound.sdf_grid, cell_coords(x_np, res), CLAMPED_3D,
                    spatial_grad=True) * ((res - 1) / 2.0)
    norm = tp.norm_last(g)
    degen = norm.data < 1e-8
    n = g / tp.reshape(tp.maximum(norm, 1e-12), (-1, 1))
    if np.any(degen):
        n = tp.where(degen[:, None], np.broadcast_to(WORLD_UP, n.data.shape), n)
    return n


def albedo_eval(bound, x):
    raw = multilinear(bound.albedo_grid, cell_coords(x, bound.fields.albedo.resolution),
                      CLAMPED_3D)
    return tp.sigmoid(raw)


def neus_weights(sdf_along_ray, inv_s):
    """NeuS alpha compositing weights from SDF samples along rays.

    ``sdf_along_ray`` is a (rays, samples) Var at strictly increasing sample
    distances; the last sample's alpha is 0. Weights are nonnegative and sum
    to at most 1. Also returns the (rays, samples) mask of the samples to
    shade: those whose alpha is not 0, NaN included. Any other sample adds
    exactly 0 to a weighted sum and to its gradient. A zero weight after an
    alpha of exactly 1 stays shaded: its gradient reaches earlier samples
    through the transmittance.
    """
    phi = tp.sigmoid(sdf_along_ray * inv_s)
    phi_cur = phi[:, :-1]
    phi_next = phi[:, 1:]
    alpha = tp.maximum((phi_cur - phi_next) / tp.maximum(phi_cur, 1e-7), 0.0)
    zeros = np.zeros((sdf_along_ray.data.shape[0], 1))
    alpha = tp.concat([alpha, tp._lift(zeros)], axis=1)
    trans = tp.exclusive_cumprod_last(1.0 - alpha)
    return alpha * trans, alpha.data != 0.0


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

    @property
    def positions(self):
        return self.origins[:, None, :] + self.t[..., None] * self.directions[:, None, :]


def stratified_samples(origins, directions, n_samples, rng, near=0.02):
    """Jittered uniform bins from near to each ray's unit-sphere exit."""
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    far = np.maximum(ray_sphere_exit(origins, directions).t, near + 1e-3)
    edges = np.linspace(0.0, 1.0, n_samples + 1)
    lo = near + (far[:, None] - near) * edges[:-1]
    hi = near + (far[:, None] - near) * edges[1:]
    u = rng.random((origins.shape[0], n_samples))
    t = lo + (hi - lo) * u
    return RaySamples(origins=origins, directions=directions, t=t, far=far)


@dataclass
class TraceResult:
    hit: np.ndarray        # (...) bool, the rays' broadcast shape
    t: np.ndarray          # (...) distance at hit (or last position)
    converged: np.ndarray  # (...) False only when TRACE_STEPS ran out mid-trace


TRACE_STEPS = 192  # sphere-tracing steps per ray, for every caller
TRACE_THRESHOLD = 1e-4  # an SDF value below this is a surface hit


def sphere_trace(sdf_like, origins, dirs):
    """Classic sphere tracing against anything exposing ``sdf_np(points)``.

    Serves as the non-differentiable visibility/depth oracle. Origins and
    directions broadcast against each other over their leading axes, as in
    ``ray_sphere_exit``; ``hit``, ``t`` and ``converged`` take the broadcast
    shape. A ray hits where the SDF falls below ``TRACE_THRESHOLD``; rays
    that leave the unit ball report no-hit with t at its far root. Analytic
    scenes (anything that also exposes ``intersect``, which ignores hits
    outside the unit ball) are solved in closed form on the broadcast rays:
    marching would only approximate the same roots, at about ten times the
    cost. A ray that starts within the threshold of a surface hits at t = 0
    either way (in closed form, one SDF read per origin). Marching runs on
    the flattened rays, and a marched ray still active after
    ``TRACE_STEPS`` steps reports no hit and ``converged`` False.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    t_exit = np.maximum(ray_sphere_exit(o, d).t_far, 0.0)
    shape = t_exit.shape

    if hasattr(sdf_like, "intersect"):
        t_hit, _, hit = sdf_like.intersect(o, d)
        inside = (sdf_like.sdf_np(o.reshape(-1, 3)).reshape(o.shape[:-1])
                  < TRACE_THRESHOLD)
        t = np.where(inside, 0.0, np.where(hit, t_hit, t_exit))
        return TraceResult(hit=hit | inside, t=t,
                           converged=np.ones(shape, dtype=bool))

    o = np.broadcast_to(o, shape + (3,)).reshape(-1, 3)
    d = np.broadcast_to(d, shape + (3,)).reshape(-1, 3)
    t_exit = t_exit.reshape(-1)
    n = t_exit.size
    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    for _ in range(TRACE_STEPS):
        if not np.any(active):
            break
        pts = o[active] + t[active, None] * d[active]
        f = sdf_like.sdf_np(pts)
        idx = np.flatnonzero(active)
        newly_hit = f < TRACE_THRESHOLD
        hit[idx[newly_hit]] = True
        active[idx[newly_hit]] = False
        adv = idx[~newly_hit]
        t[adv] += f[~newly_hit]
        escaped = t[adv] > t_exit[adv] + TRACE_THRESHOLD
        if np.any(escaped):
            t[adv[escaped]] = t_exit[adv[escaped]]
            active[adv[escaped]] = False
    converged = ~active
    t[active] = t_exit[active]
    return TraceResult(hit=hit.reshape(shape), t=t.reshape(shape),
                       converged=converged.reshape(shape))

