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
Two tape nodes call it: ``ddf_eval``, the DDF losses' depth (one node
per supervision batch and step, which the depth and levelset terms both
read), and the visibility query ``soft_visibility``, which runs over
blocks of whole rays and saves closed-form adjoint coefficients only for
the queries whose value is neither exactly 0 nor exactly 1 (NaN
included); every other query passes exactly 0. Its read keeps the lerp
tree's value levels, and only those queries take the partials from
them (``_DdfRead.select``). Each decides its mode
from its inputs alone: when none of them is on a tape it computes values
alone and returns a constant. A caller that holds visibility constant
reads a constant binding (``BoundDdf(None, ..., trainable=False)``) at
plain arrays. Light directions are plain arrays with no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tape as tp
from . import fields as fd
from .fields import _corner_index, _grid_read, _grid_scatter, _lerp_tree_vjp
from .geometry import ConfigError, icosphere_directions, ray_sphere_exit

SCENE_DIAMETER = 2.0
ETA = 50.0  # sharpness of the soft-visibility sigmoid


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

    def select(self, pick):
        """This map at a subset of its queries: each frame term through
        ``pick``."""
        sub = object.__new__(_DirectionMap)
        sub.scale = self.scale
        sub.terms = tuple(pick(a) for a in self.terms)
        return sub

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


def _lerp_levels(vals, fracs):
    """``fields._lerp_tree``'s value rows at every level, without the
    partials: the corner values ``vals`` (2^k, ...), then each axis's lerp
    of the level before, each in a new array, so that the partials can be
    taken later at any subset of the queries (``_lerp_partials``). The last
    level is the value (1, ...), the same operations as the tree's and so
    the same bits."""
    levels = [vals]
    for f in fracs:
        half = levels[-1].shape[0] // 2
        out = levels[-1][:half] * (1.0 - f)
        out += levels[-1][half:] * f
        levels.append(out)
    return levels


def _lerp_partials(levels, fracs):
    """The k partials of ``fields._lerp_tree`` (k, ...) from the value
    levels ``levels`` of ``_lerp_levels``: each axis's hi - lo of its level,
    lerped along the later axes with the tree's operations, so bit for bit
    the tree's partial rows."""
    rows = np.empty((0,) + levels[0].shape)
    for j, f in enumerate(fracs):
        half = levels[j].shape[0] // 2
        lo, hi = rows[:, :half], rows[:, half:]
        out = np.empty((j + 1, half) + levels[j].shape[1:])
        np.subtract(levels[j][half:], levels[j][:half], out=out[j])
        lo *= 1.0 - f
        hi *= f
        np.add(lo, hi, out=out[:j])
        rows = out
    return rows[:, 0]


class _DdfRead:
    """The DDF grid ``grid`` read at sphere points ``s`` looking along ``d``
    (three component arrays each, of one rank, broadcasting): the cell
    coordinates ``u``, the corner indices ``corner`` and fractions
    ``frac`` of ``fields._grid_read`` and ``_depth``'s output. With
    ``partials`` the lerp tree carries the 4 partials along the coordinates
    (``self.partials``, for ``pullback``). With ``levels`` instead the read
    keeps the tree's value levels (``_lerp_levels``), from which ``select``
    takes the partials of any subset of the queries."""

    def __init__(self, grid, s, d, partials, levels=False):
        self.shape = grid.shape
        self.dmap = _DirectionMap(s, d, grid.shape)
        self.u = self.dmap.coords()
        if levels:
            self.corner, self.frac = _corner_index(grid.shape, self.u, DDF_WRAP)
            self.levels = _lerp_levels(np.take(grid.reshape(-1), self.corner, axis=0),
                                       self.frac)
            tree = self.levels[-1]
        else:
            self.corner, self.frac, tree = _grid_read(grid, self.u, DDF_WRAP, partials)
            self.partials = tree[1:]
        self.depth, self.sig = _depth(tree[0])

    def pullback(self, g_raw):
        """s's adjoint (three component arrays) from the raw depth's adjoint,
        through the partials; a clamped coordinate at or beyond an end node
        passes gradient 0."""
        g_u = [g_raw * self.partials[j] for j in range(4)]
        for j in (0, 2):
            g_u[j] = g_u[j] * ((self.u[j] > 0.0) & (self.u[j] < self.shape[j] - 1))
        return self.dmap.pullback(g_u)

    def select(self, flat):
        """A read with ``levels`` at the flat indices ``flat`` of its
        query shape (None for all of them), as a read with the partials:
        its coordinates, corners, fractions, direction terms and sigmoid
        picked, and the partials taken from its picked value levels.
        Returns the read and the function that picks the same queries,
        flat, from any array that broadcasts to the query shape."""
        shape = self.depth.shape
        if flat is None:
            def pick(a):
                return a
        else:
            def pick(a):
                return np.broadcast_to(a, shape).reshape(-1).take(flat)
        sub = object.__new__(_DdfRead)
        sub.shape = self.shape
        sub.dmap = self.dmap.select(pick)
        sub.u = [pick(a) for a in self.u]
        sub.frac = [pick(f) for f in self.frac]
        if flat is None:
            sub.corner, levels = self.corner, self.levels
        else:
            # every level but the value, each query's rows gathered again
            sub.corner, *levels = (np.take(a.reshape(a.shape[0], -1), flat, axis=1)
                                   for a in (self.corner, *self.levels[:-1]))
        sub.partials = _lerp_partials(levels, sub.frac)
        sub.sig = pick(self.sig)
        return sub, pick


def ddf_eval(bound, s, d_world):
    """Predicted depth in (0,2) at sphere points ``s`` looking inward along
    the array ``d_world`` (an outward direction reads the grid all the
    same). Differentiable in the grid and (when a Var) in s; the direction
    gets no gradient; s and d broadcast. One ``ddf_depth`` node over a
    ``_DdfRead`` (with partials only when s is on a tape): the grid's
    adjoint is the read's transpose, scattered once.
    """
    s = tp._lift(s)
    d_np = np.asarray(d_world, dtype=np.float64)
    s_c, d_c = (np.moveaxis(a, -1, 0) for a in np.broadcast_arrays(s.data, d_np))
    read = _DdfRead(bound.grid.data, s_c, d_c, s.tape is not None or bool(s.parents))

    def vjp_grid(g):
        raw = _depth_slope(g, read.sig)
        return _grid_scatter(read.shape, read.corner, read.frac, raw[None])

    def vjp_s(g):
        return np.stack(read.pullback(_depth_slope(g, read.sig)), axis=-1)

    return tp._node("ddf_depth", read.depth, (bound.grid, s), (vjp_grid, vjp_s))


VISIBILITY_BLOCK = 16384  # queries per block of whole rays in soft_visibility


def soft_visibility(bound, x, d):
    """Soft sky visibility in [0,1] for points x (||x|| <= 1) and directions d,
    an array with no gradient: v = 1 - sigmoid(ETA (t - depth - eps)), with
    t the distance from x to the unit sphere along d, depth the DDF's depth
    at that exit point s looking back along -d, and eps the bound's
    occlusion tolerance.

    Directions on or below the horizon (d_z <= 0) are exactly visible.
    Broadcasts: x (R,1,3) against d (1,D,3) produces (R,D). Differentiable
    w.r.t. x, the DDF grid and epsilon.

    One tape node with parents x, the grid and epsilon, evaluated over
    blocks of whole rays (leading-axis rows) of about ``VISIBILITY_BLOCK``
    queries. Per block it finds the exit distance and point, reads the DDF
    there once (``_DdfRead``, the raw depth alone) and applies both
    sigmoids.

    Gradients follow one rule: only a query whose v is neither exactly 0
    nor exactly 1 is in band and has adjoint coefficients; every other
    query passes exactly 0, which is what central differences read there
    (below the horizon v is pinned to 1, and a sigmoid that rounds to 0 or
    1 has a slope below ETA * 2^-54). NaN is in band, so a non-finite input
    still gives a non-finite gradient. For the in-band queries it computes
    and saves, block by block and packed, the closed-form coefficients
    dv/dx (3 per query), dv/draw and dv/deps, their corner indices and 4
    fractions, and their flat positions, so that its gradients recompute
    nothing and cost what the in-band share costs: x takes the
    coefficient-weighted adjoint (zeros elsewhere) summed over directions,
    epsilon one dot product, and the grid one deferred scatter of the lerp
    tree's transpose over the in-band queries (empty when none is in band),
    corner major, as the scatter of one read adds. The coefficients need
    the raw depth's 4 partials, which only the in-band queries compute,
    from the block read's lerp-tree levels picked at their positions
    (``_DdfRead.select``): the same bits as a tree that carries them.
    When x, the grid and epsilon are all constants it computes v alone and
    returns a constant: no coefficients, no parents and no tape.
    """
    x = tp._lift(x)
    d = np.asarray(d, dtype=np.float64)
    grad = any(v.tape is not None or v.parents for v in (x, bound.grid, bound.eps_raw))
    eps = bound.epsilon()
    grid = bound.grid.data
    shape = np.broadcast_shapes(x.data.shape[:-1], d.shape[:-1])
    full = shape or (1,)  # blocks run over a leading axis
    xs = x.data.reshape((1,) * (len(full) + 1 - x.data.ndim) + x.data.shape)
    ds = d.reshape((1,) * (len(full) + 1 - d.ndim) + d.shape)

    v = np.empty(full)
    row = math.prod(full[1:])
    saved = []  # per block: its in-band queries' flat positions (a slice
    # when all of them are in band), and their coefficients, fractions and
    # corner indices, packed
    step = max(1, VISIBILITY_BLOCK // max(1, row))
    # one block at least, so that an empty query still saves its empty arrays
    for lo in range(0, max(full[0], 1), step):
        b = slice(lo, lo + step)
        xb = xs[b] if xs.shape[0] > 1 else xs
        db = ds[b] if ds.shape[0] > 1 else ds
        q = ray_sphere_exit(xb, db)
        xc = [xb[..., k] for k in range(3)]
        dc = [db[..., k] for k in range(3)]
        sc = [xk + q.t * dk for xk, dk in zip(xc, dc)]
        read = _DdfRead(grid, sc, [-dk for dk in dc], False, levels=grad)
        occluded = tp.sigmoid_np(ETA * ((q.t - read.depth) - eps.data))
        lower = np.broadcast_to(dc[2] <= 0.0, occluded.shape)
        v[b] = np.where(lower, 1.0, 1.0 - occluded)
        if not grad:
            continue
        # the rule: only a query whose v is neither exactly 0 nor exactly 1
        # (NaN included) has coefficients; the rest pass exactly 0
        band = (v[b] != 0.0) & (v[b] != 1.0)
        n = np.count_nonzero(band)
        flat = None if n == band.size else np.flatnonzero(band)
        rd, pick = read.select(flat)
        occ, t, root, near, qb = (pick(a) for a in (occluded, q.t, q.root, q.near, q.b))
        xc, dc = [pick(a) for a in xc], [pick(a) for a in dc]
        # dv/deps = dv/ddepth = -dv/dt
        k_eps = ETA * occ * (1.0 - occ)
        k_raw = _depth_slope(k_eps, rd.sig)
        g_s = rd.pullback(k_raw)
        # s = x + t d: dv/dt gathers the exit point's share, then passes
        # through t's closed form (as the quadratic's roots, clamped)
        g_t = (g_s[0] * dc[0] + g_s[1] * dc[1] + g_s[2] * dc[2] - k_eps) * (t > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            g_disc = np.where(root > 0.0, np.where(near, -0.25, 0.25) * g_t / root, 0.0)
        g_b2 = 2.0 * (-0.5 * g_t + 2.0 * qb * g_disc)
        g_c2 = 2.0 * (-4.0 * g_disc)
        coef_x = np.empty((3, n))
        for k in range(3):
            np.add(g_s[k] + g_b2 * dc[k], g_c2 * xc[k], out=coef_x[k].reshape(k_eps.shape))
        at = slice(lo * row, lo * row + n) if flat is None else lo * row + flat
        saved.append((at, coef_x, k_raw.reshape(-1), k_eps.reshape(-1),
                      [f.reshape(-1) for f in rd.frac], rd.corner.reshape(16, -1)))
    if not grad:
        return tp.Var(v.reshape(shape))
    coef_eps = np.concatenate([c[3] for c in saved])

    # the vjps run block by block over the saved pieces, with the same bits
    # as over the pieces joined: x's adjoint is elementwise, epsilon's one
    # dot product over the joined in-band queries, and the grid's scatter
    # adds corner by corner, each corner's blocks in order (corner major,
    # as one read's scatter adds)
    def vjp_x(g):
        # zeros at the saturated queries, in the all-query layout, so that
        # the tape's sum over broadcast axes adds in the same order
        g = g.reshape(-1)
        gx = np.zeros((3, v.size))
        for at, coef_x, *_ in saved:
            gx[:, at] = coef_x * g[at]
        return np.moveaxis(gx.reshape((3,) + full), 0, -1)

    def vjp_grid(g):
        # the raw depth's adjoint through the lerp tree's transpose
        g = g.reshape(-1)
        rows = [_lerp_tree_vjp((g[at] * coef_raw)[None], fracs)
                for at, _, coef_raw, _, fracs, _ in saved]
        return tp._Scatter(grid.shape, [c[-1][k] for k in range(16) for c in saved],
                           [r[k] for k in range(16) for r in rows])

    def vjp_eps(g):
        g = g.reshape(-1)
        return np.dot(np.concatenate([g[c[0]] for c in saved]), coef_eps)

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
