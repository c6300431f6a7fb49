"""Spherical Directional Distance Field and outside-in soft sky visibility.

The DDF lives on the unit sphere and stores, for any sphere point s and
inward local direction, the distance to the first surface: an inward-looking
depth map from every viewpoint. Visibility of the sky from a scene point x in
direction d is computed outside-in: find the sphere exit point s of the ray,
query the DDF looking back along -d, and compare the predicted depth to the
actual distance ||s - x||. The comparison is softened with a sigmoid so
appearance gradients flow from shadows into the DDF, the threshold, and the
scene geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .fields import multilinear, sphere_trace
from .geometry import WORLD_UP, icosphere_directions

SCENE_DIAMETER = 2.0


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
    """Learnable occlusion tolerance epsilon (softplus of raw) and the fixed
    sigmoid sharpness eta. epsilon starts at the scene radius."""

    eps_raw: np.ndarray
    eta: float = 50.0

    @classmethod
    def default(cls, epsilon=1.0, eta=50.0):
        return cls(eps_raw=np.asarray(tp.softplus_inverse(epsilon)), eta=eta)

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
            self.grid = tp._lift(ddf.grid, None)
            self.eps_raw = tp._lift(params.eps_raw, None)

    @classmethod
    def from_vars(cls, ddf, params, grid_var, eps_raw_var):
        self = cls.__new__(cls)
        self.field = ddf
        self.params = params
        self.grid = grid_var
        self.eps_raw = eps_raw_var
        return self

    def epsilon(self):
        return tp.softplus(self.eps_raw)


def _comp(v, k):
    if isinstance(v, tp.Var):
        return v[..., k]
    return tp._lift(np.asarray(v, dtype=np.float64)[..., k], None)


def _cross(ax, ay, az, bx, by, bz):
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def _local_dir_components(s, d):
    """Components of d in the frame whose y-axis is s (x orthogonal to
    world-up, z completing it); handles broadcastable Var/numpy inputs."""
    sx, sy, sz = _comp(s, 0), _comp(s, 1), _comp(s, 2)
    dx, dy, dz = _comp(d, 0), _comp(d, 1), _comp(d, 2)
    ux, uy, uz = WORLD_UP
    xx, xy, xz = _cross(ux, uy, uz, sx, sy, sz)
    xn_sq = xx * xx + xy * xy + xz * xz
    pole = xn_sq.data < 1e-12
    inv = 1.0 / tp.sqrt(tp.maximum(xn_sq, 1e-24))
    xx, xy, xz = xx * inv, xy * inv, xz * inv
    if np.any(pole):
        # x falls back to (1,0,0) re-orthogonalized against s
        px = 1.0 - sx * sx
        py = -sx * sy
        pz = -sx * sz
        pn = tp.sqrt(tp.maximum(px * px + py * py + pz * pz, 1e-24))
        xx = tp.where(pole, px / pn, xx)
        xy = tp.where(pole, py / pn, xy)
        xz = tp.where(pole, pz / pn, xz)
    zx, zy, zz = _cross(xx, xy, xz, sx, sy, sz)
    d_x = dx * xx + dy * xy + dz * xz
    d_y = dx * sx + dy * sy + dz * sz
    d_z = dx * zx + dy * zy + dz * zz
    return d_x, d_y, d_z


def ddf_eval(bound, s, d_world, strict=True):
    """Predicted depth in (0,2) at sphere points ``s`` looking inward along
    ``d_world``. Differentiable in the grid and (when Vars) in s and d.

    With ``strict``, outward directions (d . s > 0) raise PreconditionError.
    """
    s_np = s.data if isinstance(s, tp.Var) else np.asarray(s, dtype=np.float64)
    d_np = (
        d_world.data if isinstance(d_world, tp.Var)
        else np.asarray(d_world, dtype=np.float64)
    )
    if strict and np.any(np.sum(s_np * d_np, axis=-1) > 1e-9):
        raise PreconditionError("DDF direction must point inward (d . s < 0)")

    n_ts, n_ps, n_td, n_pd = bound.field.shape
    sx, sy, sz = _comp(s, 0), _comp(s, 1), _comp(s, 2)
    theta_s = tp.arccos(sz)
    phi_s = tp.arctan2(sy, sx)
    d_x, d_y, d_z = _local_dir_components(s, d_world)
    theta_d = tp.arccos(tp.minimum(tp.maximum(-d_y, -1.0), 1.0))
    phi_d = tp.arctan2(d_z, d_x)

    u = (theta_s * ((n_ts - 1) / np.pi),
         (phi_s + np.pi) * (n_ps / (2.0 * np.pi)),
         theta_d * ((n_td - 1) / (np.pi / 2.0)),
         (phi_d + np.pi) * (n_pd / (2.0 * np.pi)))
    raw = multilinear(bound.grid, u, (False, True, False, True))
    gate = tp.minimum(tp.maximum(tp.sigmoid(raw), 1e-12), 1.0 - 1e-12)
    return SCENE_DIAMETER * gate


def exit_point(x, d):
    """Differentiable smallest-nonnegative-root unit-sphere intersection of
    rays x + t d; returns (s, t). Broadcasts over leading axes."""
    xx = _comp(x, 0), _comp(x, 1), _comp(x, 2)
    dd = _comp(d, 0), _comp(d, 1), _comp(d, 2)
    b = 2.0 * (xx[0] * dd[0] + xx[1] * dd[1] + xx[2] * dd[2])
    c = xx[0] * xx[0] + xx[1] * xx[1] + xx[2] * xx[2] - 1.0
    disc = tp.maximum(b * b - 4.0 * c, 0.0)
    root = tp.sqrt(disc)
    t0 = (-b - root) * 0.5
    t1 = (-b + root) * 0.5
    t = tp.where(t0.data >= -1e-12, t0, t1)
    t = tp.maximum(t, 0.0)
    s = tp.stack_last([xx[0] + t * dd[0], xx[1] + t * dd[1], xx[2] + t * dd[2]])
    return s, t


def soft_visibility(bound, x, d, stop_grad=False):
    """Soft sky visibility in [0,1] for points x (||x|| <= 1) and directions d.

    Lower-hemisphere directions (d_z < 0) are exactly visible. Broadcasts:
    x (R,1,3) against d (1,D,3) produces (R,D). Differentiable w.r.t. x, the
    DDF grid and epsilon unless ``stop_grad``.
    """
    d_np = d.data if isinstance(d, tp.Var) else np.asarray(d, dtype=np.float64)
    s, t = exit_point(x, d)
    minus_d = -d if isinstance(d, tp.Var) else tp._lift(-d_np, None)
    depth = ddf_eval(bound, s, minus_d, strict=False)
    eps = bound.epsilon()
    v = 1.0 - tp.sigmoid(bound.params.eta * (t - depth - eps))
    lower = np.broadcast_to(d_np[..., 2], v.data.shape) < 0.0
    if np.any(lower):
        v = tp.where(lower, np.ones(v.data.shape), v)
    if stop_grad:
        v = tp.stop_gradient(v)
    return v


def binary_visibility_oracle(sdf_like, x, d, max_steps=192, threshold=1e-4):
    """Ground-truth-style binary visibility by sphere tracing.

    Callers must pre-offset x along the surface normal by twice the trace
    threshold. Returns (vis in {0,1}, non_converged flag array); rays whose
    trace ran out of steps are treated as occluded and flagged.
    """
    res = sphere_trace(sdf_like, x, d, max_steps=max_steps, threshold=threshold)
    vis = (~res.hit & res.converged).astype(np.float64)
    return vis, ~res.converged


def ambient_occlusion(bound, x, dirs=None):
    """Mean soft visibility over the upper-hemisphere directions; (N,) Var."""
    if dirs is None:
        dirs = icosphere_directions(2).directions
    upper = dirs[dirs[:, 2] > 0.0]
    x_np = x.data if isinstance(x, tp.Var) else np.asarray(x, dtype=np.float64)
    xb = (
        tp.reshape(x, (-1, 1, 3))
        if isinstance(x, tp.Var)
        else tp._lift(x_np.reshape(-1, 1, 3), None)
    )
    v = soft_visibility(bound, xb, upper[None, :, :])
    return tp.vmean(v, axis=1)


def shadow_map(ddf, params, sun_dir, camera, scene_fields, n_samples=64,
               rng=None, chunk=4096):
    """Per-pixel soft visibility toward ``sun_dir`` at the expected surface
    point; sky pixels (no termination) get value 1."""
    from . import fields as fd  # local import to keep module load acyclic

    if rng is None:
        rng = np.random.default_rng(0)
    sun = np.asarray(sun_dir, dtype=np.float64)
    sun /= np.linalg.norm(sun)
    pixels = camera.all_pixels()
    out = np.ones(pixels.shape[0])
    bnd_f = fd.BoundFields(None, scene_fields, trainable=False)
    bnd_d = BoundDdf(None, ddf, params, trainable=False)
    for lo in range(0, pixels.shape[0], chunk):
        px = pixels[lo:lo + chunk]
        dirs = camera.ray_dirs(px)
        origins = np.broadcast_to(camera.origin, dirs.shape)
        rs = fd.stratified_samples(origins, dirs, n_samples, rng)
        f = fd.sdf_eval(bnd_f, rs.positions.reshape(-1, 3))
        w = fd.neus_weights(tp.reshape(f, rs.t.shape), bnd_f.inv_s())
        t_e, w_sum = fd.expected_depth(w, rs.t, rs.far)
        x_e = origins + t_e.data[:, None] * dirs
        v = soft_visibility(bnd_d, tp._lift(x_e[:, None, :], None),
                            sun[None, None, :])
        vals = v.data.reshape(-1)
        vals[w_sum.data < 1e-3] = 1.0
        out[lo:lo + chunk] = vals
    return out.reshape(camera.height, camera.width)
