"""Deterministic spherical and sampling primitives; no learnable state.

All functions are pure numpy and safe to call from any thread; RNG state is
always caller-owned (pass a ``numpy.random.Generator``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

WORLD_UP = np.array([0.0, 0.0, 1.0])

MAX_ICOSPHERE_LEVEL = 6


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class DirectionSet:
    """Unit direction samples distributed quasi-uniformly over the sphere."""

    directions: np.ndarray  # (D, 3) unit rows

    @property
    def count(self):
        return self.directions.shape[0]


def normalize(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class SphereExit(NamedTuple):
    """Rays o + t d with unit d against the unit sphere: the quadratic
    t^2 + b t + c = 0 and its roots (-b -+ root) / 2."""

    t: np.ndarray       # exit distance: t_near where near, else t_far; >= 0
    near: np.ndarray    # t_near >= -1e-12: the ray starts on the sphere or outside it
    t_near: np.ndarray  # the smaller root
    t_far: np.ndarray   # the larger root
    b: np.ndarray       # 2 o . d
    c: np.ndarray       # |o|^2 - 1, > 0 outside the sphere
    root: np.ndarray    # sqrt(max(b^2 - 4c, 0)); 0 where the line misses or grazes


def ray_sphere_exit(origin, direction):
    """The one closed-form solution of |o + t d|^2 = 1; broadcasts over
    leading axes. For ||o|| <= 1 the exit distance ``t`` is the smallest
    non-negative root; a tangential ray starting on the sphere exits at 0.
    """
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    b = 2.0 * (o[..., 0] * d[..., 0] + o[..., 1] * d[..., 1] + o[..., 2] * d[..., 2])
    c = o[..., 0] * o[..., 0] + o[..., 1] * o[..., 1] + o[..., 2] * o[..., 2] - 1.0
    root = np.sqrt(np.maximum(b * b - 4.0 * c, 0.0))
    t_near = (-b - root) * 0.5
    t_far = (-b + root) * 0.5
    near = t_near >= -1e-12
    t = np.maximum(np.where(near, t_near, t_far), 0.0)
    return SphereExit(t, near, t_near, t_far, b, c, root)


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return v, f


@lru_cache(maxsize=None)
def icosphere_directions(subdivision_level):
    """Vertices of a recursively subdivided icosahedron on the unit sphere.

    Counts are 12, 42, 162, 642, ... per level; level 3 gives the 642
    directions used for the illumination quadrature. Each level is built
    once and shared: the returned directions are read-only.
    """
    if subdivision_level < 0 or subdivision_level > MAX_ICOSPHERE_LEVEL:
        raise ConfigError(
            f"icosphere subdivision level must be in [0, {MAX_ICOSPHERE_LEVEL}]"
        )
    verts, faces = _icosahedron()
    verts = [tuple(v) for v in verts]
    for _ in range(subdivision_level):
        midcache = {}
        vlist = list(verts)
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key in midcache:
                return midcache[key]
            m = np.asarray(vlist[i]) + np.asarray(vlist[j])
            m /= np.linalg.norm(m)
            vlist.append(tuple(m))
            midcache[key] = len(vlist) - 1
            return midcache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        verts = vlist
        faces = np.asarray(new_faces, dtype=np.int64)
    dirs = np.asarray(verts, dtype=np.float64)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs.flags.writeable = False
    return DirectionSet(directions=dirs)


def so3_jitter(rng):
    """Haar-uniform rotation matrix via the quaternion method."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# smallest vMF concentration the sampler takes: the lower bound of the
# ``vmf_kappa`` config range, shared so that the sampler and the config agree.
# It is a chosen bound, not a numerical limit: the inverse CDF below samples
# correctly down to about 1e-8; near 1e-14 its polar angles fall onto a few
# hundred values, and from about 1e-16 down they collapse onto the mean.
VMF_KAPPA_MIN = 0.01


def vmf_sample_batch(mean_dirs, kappa, n_per, rng):
    """``n_per`` von Mises-Fisher samples around each of N means; returns
    (N, n_per, 3): ``_vmf_rotate`` of ``_vmf_draws``.
    """
    means = normalize(np.atleast_2d(mean_dirs))
    return _vmf_rotate(means, kappa, *_vmf_draws(rng, means.shape[0], n_per))


def _vmf_draws(rng, n, n_per):
    """The uniform draws behind ``n_per`` vMF samples around each of n
    means, (n, n_per) each: the polar angle's, then the azimuth's."""
    return rng.random((n, n_per)), rng.random((n, n_per))


def _vmf_rotate(means, kappa, u, v):
    """vMF samples around the unit ``means`` (N,3) from ``_vmf_draws``'
    rows ``u`` and ``v`` (N, n_per); returns (N, n_per, 3). Each row is
    computed from its own mean and draws alone, so a subset of rows gives
    the same bits as the whole.

    Polar angle via the closed-form inverse CDF w = 1 + log(u + (1-u)e^{-2k})/k,
    azimuth 2 pi v, then a per-row Rodrigues rotation of the mode onto its
    mean, written out per component: l c + (k x l) s + k (k . l)(1 - c),
    with the products of ``np.cross`` and the order of ``np.sum``, so the
    draws are bit for bit those of the vector form. ConfigError unless
    ``kappa`` is at least ``VMF_KAPPA_MIN``.
    """
    if not kappa >= VMF_KAPPA_MIN:
        raise ConfigError(
            f"vMF concentration must be at least {VMF_KAPPA_MIN}, got {kappa!r}")
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    phi = v * 2.0 * np.pi
    r = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    l0, l1, l2 = r * np.cos(phi), r * np.sin(phi), w
    # per-row Rodrigues rotation of +z to the mean, about the unit axis k
    # along z x mean; each row's values are (N,1) columns
    m0, m1, m2 = means[:, 0:1], means[:, 1:2], means[:, 2:3]
    a0, a1, a2 = 0.0 * m2 - 1.0 * m1, 1.0 * m0 - 0.0 * m2, 0.0 * m1 - 0.0 * m0
    norm_a = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    degenerate = norm_a < 1e-12
    norm_a = np.maximum(norm_a, 1e-300)
    k0 = np.where(degenerate, 1.0, a0 / norm_a)
    k1 = np.where(degenerate, 0.0, a1 / norm_a)
    k2 = np.where(degenerate, 0.0, a2 / norm_a)
    angle = np.arccos(np.clip(m2, -1.0, 1.0))
    c, s = np.cos(angle), np.sin(angle)
    omc = 1.0 - c
    # np.sum starts from +0.0, so its sum is never -0.0: the trailing + 0.0
    dot = l0 * k0 + l1 * k1 + l2 * k2 + 0.0
    rotated = np.stack([
        l0 * c + (k1 * l2 - k2 * l1) * s + k0 * dot * omc,
        l1 * c + (k2 * l0 - k0 * l2) * s + k1 * dot * omc,
        l2 * c + (k0 * l1 - k1 * l0) * s + k2 * dot * omc], axis=-1)
    if np.any(degenerate):  # a mean at +z keeps the mode; at -z, mirrors it
        rows = degenerate[:, 0]
        sign = np.where(m2[rows] < 0, -1.0, 1.0)
        rotated[rows] = np.stack([l0[rows], l1[rows], l2[rows] * sign], axis=-1)
    return rotated


SRGB_LINEAR_KNEE = 0.0031308


def srgb(linear_rgb):
    """Clamp to [0,1] then apply the standard sRGB transfer per channel."""
    x = np.clip(np.asarray(linear_rgb, dtype=np.float64), 0.0, 1.0)
    return np.where(
        x <= SRGB_LINEAR_KNEE,
        12.92 * x,
        1.055 * np.maximum(x, 1e-6) ** (1.0 / 2.4) - 0.055,
    )


def spherical_to_dir(theta, phi):
    """theta: polar from +z (zenith); phi: azimuth from +x toward +y."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def sample_sphere(rng, n, min_z=-1.0, max_z=1.0):
    """Uniform points on the unit sphere with z in [min_z, max_z]."""
    z = rng.uniform(min_z, max_z, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
