"""Spherical Directional Distance Field and outside-in soft sky visibility.

The DDF lives on the unit sphere and stores, for any sphere point s and
inward local direction, the distance to the first surface: an inward-looking
depth map from every viewpoint. Visibility of the sky from a scene point x in
direction d is computed outside-in: find the sphere exit point s of the ray,
query the DDF looking back along -d, and compare the predicted depth to the
actual distance ||s - x||. The comparison is softened with a sigmoid so
appearance gradients flow from shadows into the DDF, the threshold, and the
scene geometry.

The DDF is read one way, ``_DdfRead``: the four cell coordinates
(``_DirectionMap``: no local frame is built, the local azimuth is an atan2
of unnormalised frame components), ``fields._grid_read`` (one gather of the
16 corners, a lerp tree for the raw depth and, if asked, its partials) and
the clamped-sigmoid depth; its ``pullback`` is the sphere point's adjoint.
Two tape nodes call it: ``ddf_eval``, the DDF losses' depth (whose
levelset term takes its hit rows from the depth term's read,
``_DdfRead.rows``), and the visibility query ``soft_visibility``, which
runs over blocks of whole rays and saves each query's closed-form adjoint
coefficients. With constant inputs both compute values alone, as does
``soft_visibility`` under ``stop_grad``. Light directions are plain arrays
with no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .fields import _grid_read, _grid_scatter
from .geometry import ConfigError, icosphere_directions, ray_sphere_exit

SCENE_DIAMETER = 2.0
ETA = 50.0  # sharpness of the soft-visibility sigmoid


class PreconditionError(Exception):
    pass


class DdfField:
    """Learnable 4-D grid over (sphere position, local inward direction).

    Axes: polar/azimuth of s (theta_s, phi_s) then polar/azimuth of the local
    direction (theta_d from the inward axis, phi_d). Both azimuths wrap.
    Raw values map through a sigmoid scaled by the scene diameter, so
    predicted depth is always in (0, 2).
    """

    def __init__(self, grid):
        self.grid = np.asarray(grid, dtype=np.float64)
        if self.grid.ndim != 4:
            raise ValueError("DDF grid must be 4-D")

    @classmethod
    def zero_init(cls, pos_res=(32, 64), dir_res=(16, 32)):
        """Raw zeros: mid-range depth 1 everywhere."""
        return cls(np.zeros(tuple(pos_res) + tuple(dir_res)))

    @property
    def shape(self):
        return self.grid.shape


@dataclass
class VisibilityParams:
    """Learnable occlusion tolerance epsilon (softplus of raw); it starts at
    the scene radius."""

    eps_raw: np.ndarray

    @classmethod
    def default(cls, epsilon=1.0):
        return cls(eps_raw=np.asarray(tp.softplus_inverse(epsilon)))

    @property
    def epsilon(self):
        raw = float(self.eps_raw)
        return raw if raw > 30.0 else float(np.log1p(np.exp(raw)))


class BoundDdf:
    def __init__(self, tape, ddf, params, trainable=True):
        self.field = ddf
        self.params = params
        if trainable:
            self.grid = tape.parameter("ddf_grid", ddf.grid)
            self.eps_raw = tape.parameter("vis_eps_raw", params.eps_raw)
        else:
            self.grid = tp._lift(ddf.grid)
            self.eps_raw = tp._lift(params.eps_raw)

    def epsilon(self):
        return tp.softplus(self.eps_raw)


class _DirectionMap:
    """The DDF's map from queries at sphere points s looking along d to the
    grid's four cell coordinates, and its Jacobian in s.

    ``s`` and ``d`` are each three broadcasting component arrays (x, y, z);
    d has no gradient. The coordinates are the polar/azimuth angles of s,
    then those of d in the local frame whose y-axis is s, whose x-axis is
    world-up x s and whose z-axis is x x s (at the poles, where world-up x s
    vanishes, x is (1, 0, 0) orthogonalised against s). The local polar
    angle is arccos(-(d . s)), clamped. The local azimuth needs no
    normalised frame, because atan2 is scale-invariant: it is
    atan2(s_z (d_x s_x + d_y s_y) - d_z rho^2, d_y s_x - d_x s_y) with
    rho^2 = s_x^2 + s_y^2, and atan2(d_z s_y - d_y s_z, d_x - s_x (d . s))
    at the poles (rho^2 < 1e-12). The frame terms are computed once, here;
    ``coords`` and ``pullback`` both read them.
    """

    def __init__(self, s, d, shape):
        n_ts, n_ps, n_td, n_pd = shape
        self.scale = ((n_ts - 1) / np.pi, n_ps / (2.0 * np.pi),
                      (n_td - 1) / (np.pi / 2.0), n_pd / (2.0 * np.pi))
        sx, sy, sz = s
        dx, dy, dz = d
        ds = dx * sx + dy * sy + dz * sz
        rho2 = sx * sx + sy * sy
        num = sz * (dx * sx + dy * sy) - dz * rho2
        den = dy * sx - dx * sy
        pole = rho2 < 1e-12
        if np.any(pole):
            num = np.where(pole, dz * sy - dy * sz, num)
            den = np.where(pole, dx - sx * ds, den)
        self.terms = (sx, sy, sz, dx, dy, dz, ds, rho2, num, den, pole)

    def coords(self):
        """The four cell coordinates, as a tuple of arrays."""
        sx, sy, sz, _, _, _, ds, _, num, den, _ = self.terms
        scale = self.scale
        return (np.arccos(np.clip(sz, -1.0, 1.0)) * scale[0],
                (np.arctan2(sy, sx) + np.pi) * scale[1],
                np.arccos(np.clip(-ds, -1.0, 1.0)) * scale[2],
                (np.arctan2(num, den) + np.pi) * scale[3])

    def pullback(self, g):
        """The adjoint of s, as three component arrays, from the four
        coordinates' adjoints ``g`` (in cells). A polar angle whose cosine is
        at or beyond +-1 passes gradient 0 (the clamp's tie rule). Each
        azimuth atan2(y, x) divides its slopes by y^2 + x^2 floored at
        1e-14; for the local azimuth the floor is scaled by the squared norm
        of the unnormalised x-axis, so that it is the floor on the
        normalised frame's components."""
        sx, sy, sz, dx, dy, dz, ds, rho2, num, den, pole = self.terms
        g0, g1, g2, g3 = (g[j] * self.scale[j] for j in range(4))
        # polar angle of s; at or beyond the clamp it passes nothing
        g_sz = -g0 * (np.abs(sz) < 1.0) / np.sqrt(np.maximum(1.0 - sz * sz, 1e-14))
        # azimuth of s
        r2 = np.maximum(sy * sy + sx * sx, 1e-14)
        g_sx, g_sy = -g1 * sy / r2, g1 * sx / r2
        # local polar angle arccos(-(d . s)), likewise
        g_ds = g2 * (np.abs(ds) < 1.0) / np.sqrt(np.maximum(1.0 - ds * ds, 1e-14))
        # local azimuth atan2(num, den); num and den are the normalised
        # frame's components times the norm of the unnormalised x-axis, so
        # the 1e-14 floor scales by its square
        if np.any(pole):
            scale2 = np.where(pole, (1.0 - sx * sx) ** 2 + sx * sx * (sy * sy + sz * sz),
                              rho2)
        else:
            scale2 = rho2
        r2 = np.maximum(num * num + den * den, 1e-14 * scale2)
        g_num, g_den = g3 * den / r2, -g3 * num / r2
        g_s = [g_sx + g_num * (sz * dx - 2.0 * dz * sx) + g_den * dy,
               g_sy + g_num * (sz * dy - 2.0 * dz * sy) - g_den * dx,
               g_sz + g_num * (dx * sx + dy * sy)]
        if np.any(pole):
            p_s = [g_den * (-ds - sx * dx),
                   g_num * dz - g_den * sx * dy,
                   -g_num * dy - g_den * sx * dz]
            g_s = [np.where(pole, p, q) for p, q in zip(p_s, g_s)]
        return [a + g_ds * b for a, b in zip(g_s, (dx, dy, dz))]


DDF_WRAP = (False, True, False, True)  # the DDF grid's two azimuths wrap


def _depth(raw):
    """SCENE_DIAMETER * sigmoid(raw), the sigmoid clamped to [1e-12,
    1 - 1e-12] so that depths stay in the open (0, 2); returns the depth and
    the unclamped sigmoid."""
    sig = tp.sigmoid_np(raw)
    return np.minimum(np.maximum(sig, 1e-12), 1.0 - 1e-12) * SCENE_DIAMETER, sig


def _depth_slope(g, sig):
    """``g`` times the slope of ``_depth`` in raw, from its sigmoid; a
    clamped entry passes gradient 0, the maximum/minimum tie rule."""
    return g * SCENE_DIAMETER * (sig < 1.0 - 1e-12) * (sig > 1e-12) * sig * (1.0 - sig)


class _DdfRead:
    """The DDF grid ``grid`` read at sphere points ``s`` looking along ``d``
    (three component arrays each, of one rank, broadcasting): the cell
    coordinates ``u``, ``fields._grid_read``'s corners, fractions and lerp
    tree (with the 4 partials if ``partials``), and ``_depth``'s output."""

    def __init__(self, grid, s, d, partials):
        self.shape = grid.shape
        self.dmap = _DirectionMap(s, d, grid.shape)
        self.u = self.dmap.coords()
        self.corner, self.frac, self.tree = _grid_read(grid, self.u, DDF_WRAP, partials)
        self.depth, self.sig = _depth(self.tree[0])

    def rows(self, keep):
        """The read of the queries that the boolean mask ``keep`` selects
        from this read of flat queries, made without partials: the same
        corners, fractions, depths and sigmoids as a read of those queries
        alone, gathered instead of recomputed. It has no pullback."""
        idx = np.flatnonzero(keep)
        sub = object.__new__(_DdfRead)
        sub.shape = self.shape
        sub.corner = np.take(self.corner, idx, axis=1)
        sub.frac = [np.take(f, idx) for f in self.frac]
        sub.depth, sub.sig = np.take(self.depth, idx), np.take(self.sig, idx)
        return sub

    def pullback(self, g_raw):
        """s's adjoint (three component arrays) from the raw depth's adjoint,
        through the partials; a clamped coordinate at or beyond an end node
        passes gradient 0."""
        g_u = [g_raw * self.tree[1 + j] for j in range(4)]
        for j in (0, 2):
            g_u[j] = g_u[j] * ((self.u[j] > 0.0) & (self.u[j] < self.shape[j] - 1))
        return self.dmap.pullback(g_u)


def ddf_eval(bound, s, d_world, strict=True):
    """Predicted depth in (0,2) at sphere points ``s`` looking inward along
    the array ``d_world``. Differentiable in the grid and (when a Var) in s;
    the direction gets no gradient; s and d broadcast. One tape node,
    ``_depth_node`` of ``_ddf_read`` (with partials only when s is on a
    tape).

    With ``strict``, outward directions (d . s > 0) raise PreconditionError.
    """
    return _depth_node(bound, *_ddf_read(bound, s, d_world, strict))


def _ddf_read(bound, s, d_world, strict):
    """``ddf_eval``'s lifted s and its ``_DdfRead`` of the bound grid."""
    s = tp._lift(s)
    d_np = np.asarray(d_world, dtype=np.float64)
    if strict and np.any(np.sum(s.data * d_np, axis=-1) > 1e-9):
        raise PreconditionError("DDF direction must point inward (d . s < 0)")
    s_c, d_c = (np.moveaxis(a, -1, 0) for a in np.broadcast_arrays(s.data, d_np))
    return s, _DdfRead(bound.grid.data, s_c, d_c, s.tape is not None or bool(s.parents))


def _depth_node(bound, s, read):
    """The ``ddf_depth`` tape node of ``read``, a read of ``bound``'s grid
    at s: its value is the read's depth; the grid's adjoint is the lerp
    tree's transpose, scattered once; s's goes through the read's partials."""

    def vjp_grid(g):
        raw = _depth_slope(g, read.sig)
        return _grid_scatter(read.shape, read.corner, read.frac, raw[None])

    def vjp_s(g):
        return np.stack(read.pullback(_depth_slope(g, read.sig)), axis=-1)

    return tp._node("ddf_depth", read.depth, (bound.grid, s), (vjp_grid, vjp_s))


VISIBILITY_BLOCK = 16384  # queries per block of whole rays in soft_visibility


def soft_visibility(bound, x, d, stop_grad=False):
    """Soft sky visibility in [0,1] for points x (||x|| <= 1) and directions d,
    an array with no gradient: v = 1 - sigmoid(ETA (t - depth - eps)), with
    t the distance from x to the unit sphere along d, depth the DDF's depth
    at that exit point s looking back along -d, and eps the bound's
    occlusion tolerance.

    Directions on or below the horizon (d_z <= 0) are exactly visible.
    Broadcasts: x (R,1,3) against d (1,D,3) produces (R,D). Differentiable
    w.r.t. x, the DDF grid and epsilon unless ``stop_grad``.

    One tape node with parents x, the grid and epsilon, evaluated over
    blocks of whole rays (leading-axis rows) of about ``VISIBILITY_BLOCK``
    queries. Per block it finds the exit distance and point, reads the DDF
    there (``_DdfRead``: the 16 corners gathered once, the raw depth and its
    4 coordinate partials from one lerp tree), then both sigmoids. It saves
    each query's closed-form adjoint coefficients, dv/dx (3 per query),
    dv/draw and dv/deps, plus the corner indices and the 4 fractions, so
    its gradients recompute nothing: x takes one weighted sum over
    directions, epsilon one dot product, and the grid one deferred scatter
    of the lerp tree's transpose over all queries (``fields._grid_scatter``).
    When x, the grid and epsilon are all constants, or with ``stop_grad``,
    it computes v alone: no coefficients and no parents (a stopped value is
    a leaf on its inputs' tape).
    """
    x = tp._lift(x)
    d = np.asarray(d, dtype=np.float64)
    grad = not stop_grad and any(v.tape is not None or v.parents
                                 for v in (x, bound.grid, bound.eps_raw))
    eps = bound.epsilon() if grad else tp.softplus(tp.Var(bound.eps_raw.data))
    grid_shape = bound.grid.data.shape
    shape = np.broadcast_shapes(x.data.shape[:-1], d.shape[:-1])
    full = shape or (1,)  # blocks run over a leading axis
    xs = x.data.reshape((1,) * (len(full) + 1 - x.data.ndim) + x.data.shape)
    ds = d.reshape((1,) * (len(full) + 1 - d.ndim) + d.shape)

    v = np.empty(full)
    if grad:
        coef_x = np.empty((3,) + full)
        coef_raw = np.empty(full)
        coef_eps = np.empty(full)
        fracs = np.empty((4,) + full)
        idx = None  # made at the first block, in its index type
    step = max(1, VISIBILITY_BLOCK // max(1, math.prod(full[1:])))
    # one block at least, so that an empty query still has its corner indices
    for lo in range(0, max(full[0], 1), step):
        b = slice(lo, lo + step)
        xb = xs[b] if xs.shape[0] > 1 else xs
        db = ds[b] if ds.shape[0] > 1 else ds
        q = ray_sphere_exit(xb, db)
        xc = [xb[..., k] for k in range(3)]
        dc = [db[..., k] for k in range(3)]
        sc = [xk + q.t * dk for xk, dk in zip(xc, dc)]
        read = _DdfRead(bound.grid.data, sc, [-dk for dk in dc], grad)
        occluded = tp.sigmoid_np(ETA * ((q.t - read.depth) - eps.data))
        lower = np.broadcast_to(dc[2] <= 0.0, occluded.shape)
        v[b] = np.where(lower, 1.0, 1.0 - occluded)
        if not grad:
            continue
        # dv/deps = dv/ddepth = -dv/dt
        k_eps = np.where(lower, 0.0, ETA * occluded * (1.0 - occluded))
        k_raw = _depth_slope(k_eps, read.sig)
        g_s = read.pullback(k_raw)
        # s = x + t d: dv/dt gathers the exit point's share, then passes
        # through t's closed form (as the quadratic's roots, clamped)
        g_t = (g_s[0] * dc[0] + g_s[1] * dc[1] + g_s[2] * dc[2] - k_eps) * (q.t > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            g_disc = np.where(q.root > 0.0,
                              np.where(q.near, -0.25, 0.25) * g_t / q.root, 0.0)
        g_b = -0.5 * g_t + 2.0 * q.b * g_disc
        g_c = -4.0 * g_disc
        for k in range(3):
            coef_x[k, b] = g_s[k] + 2.0 * g_b * dc[k] + 2.0 * g_c * xc[k]
        coef_raw[b] = k_raw
        coef_eps[b] = k_eps
        fracs[:, b] = read.frac
        if idx is None:
            idx = np.empty((16,) + full, dtype=read.corner.dtype)
        idx[:, b] = read.corner
    if not grad:
        # under stop_grad the value stays on its inputs' tape, as a leaf
        tape = tp._tape_of(x, bound.grid, bound.eps_raw)
        op = "const" if tape is None else "stopgrad"
        return tp.Var(v.reshape(shape), tape=tape, op=op)

    def vjp_x(g):
        return np.moveaxis(coef_x * g.reshape(full), 0, -1)

    def vjp_grid(g):
        # the raw depth's adjoint through the lerp tree's transpose
        return _grid_scatter(grid_shape, idx, fracs, (g.reshape(full) * coef_raw)[None])

    def vjp_eps(g):
        return np.dot(g.reshape(-1), coef_eps.reshape(-1))

    return tp._node("soft_visibility", v.reshape(shape), (x, bound.grid, eps),
                    (vjp_x, vjp_grid, vjp_eps))


def ambient_occlusion(bound, x, dirs=None):
    """Mean soft visibility at points x (N,3) over unit directions ``dirs``
    (D,3), by default the level-2 icosphere directions above the horizon;
    (N,) Var."""
    if dirs is None:
        dirs = icosphere_directions(2).directions
        dirs = dirs[dirs[:, 2] > 0.0]
    v = soft_visibility(bound, tp.reshape(tp._lift(x), (-1, 1, 3)), dirs[None, :, :])
    return tp.vmean(v, axis=1)


def sun_direction(sun_dir):
    """A unit copy of ``sun_dir``; ConfigError unless it is a finite 3-vector
    with a non-zero, finite norm."""
    try:
        sun = np.array(sun_dir, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sun direction must be a 3-vector, got {sun_dir!r}") from exc
    if sun.shape != (3,) or not np.all(np.isfinite(sun)):
        raise ConfigError(f"sun direction must be a finite 3-vector, got {sun_dir!r}")
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(sun)
    if not 0.0 < norm < np.inf:
        raise ConfigError(f"sun direction needs a non-zero, finite norm, got {sun_dir!r}")
    return sun / norm


def visibility_map(ddf, params, camera, scene_fields, dirs=None):
    """Per-pixel ``ambient_occlusion`` over ``dirs`` (its default: the upper
    hemisphere) at the expected surface point of 64 stratified samples per
    pixel (seed 0); a pixel whose accumulated weight is below 1e-3 (sky)
    reads 1. With one direction, the sun's, this is a shadow map."""
    from . import fields as fd  # local import to keep module load acyclic

    rng = np.random.default_rng(0)
    chunk = 4096
    pixels = camera.all_pixels()
    out = np.ones(pixels.shape[0])
    bnd_f = fd.BoundFields(None, scene_fields, trainable=False)
    bnd_d = BoundDdf(None, ddf, params, trainable=False)
    for lo in range(0, pixels.shape[0], chunk):
        px = pixels[lo:lo + chunk]
        rays = camera.ray_dirs(px)
        origins = np.broadcast_to(camera.origin, rays.shape)
        rs = fd.stratified_samples(origins, rays, 64, rng)
        f = fd.sdf_eval(bnd_f, rs.positions.reshape(-1, 3))
        w, _ = fd.neus_weights(tp.reshape(f, rs.t.shape), bnd_f.inv_s())
        t_e, w_sum = fd.expected_depth(w, rs.t, rs.far)
        x_e = origins + t_e.data[:, None] * rays
        vals = ambient_occlusion(bnd_d, x_e, dirs).data
        vals[w_sum.data < 1e-3] = 1.0
        out[lo:lo + chunk] = vals
    return out.reshape(camera.height, camera.width)
