"""Deterministic spherical and sampling primitives; no learnable state.

All functions are pure numpy and safe to call from any thread; RNG state is
always caller-owned (pass a ``numpy.random.Generator``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORLD_UP = np.array([0.0, 0.0, 1.0])

ICOSPHERE_COUNTS = (12, 42, 162, 642, 2562, 10242, 40962)
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


def contract(point):
    """Squash unbounded space into the open ball of radius 2; identity inside
    the unit ball, and points at infinity land on the radius-2 sphere."""
    p = np.asarray(point, dtype=np.float64)
    n = np.linalg.norm(p, axis=-1, keepdims=True)
    safe = np.maximum(n, 1e-300)
    mapped = (2.0 - 1.0 / safe) * (p / safe)
    return np.where(n <= 1.0, p, mapped)


def ray_sphere_exit(origin, direction, radius=1.0):
    """Smallest non-negative t with ||origin + t*dir|| = radius.

    Requires ||origin|| <= radius. A tangential ray starting exactly on the
    sphere returns t = 0 with s = origin.
    """
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    b = 2.0 * np.sum(o * d, axis=-1)
    c = np.sum(o * o, axis=-1) - radius * radius
    disc = np.maximum(b * b - 4.0 * c, 0.0)
    root = np.sqrt(disc)
    t0 = (-b - root) / 2.0
    t1 = (-b + root) / 2.0
    t = np.where(t0 >= -1e-12, t0, t1)
    t = np.maximum(t, 0.0)
    s = o + t[..., None] * d
    return s, t


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


def icosphere_directions(subdivision_level):
    """Vertices of a recursively subdivided icosahedron on the unit sphere.

    Counts are 12, 42, 162, 642, ... per level; level 3 gives the 642
    directions used for the illumination quadrature.
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


def vmf_sample_batch(mean_dirs, kappa, n_per, rng):
    """``n_per`` von Mises-Fisher samples around each of N means; returns
    (N, n_per, 3).

    Polar angle via the closed-form inverse CDF w = 1 + log(u + (1-u)e^{-2k})/k,
    uniform azimuth, then a per-row rotation of the mode onto its mean.
    """
    if kappa <= 0:
        raise ConfigError("vMF concentration must be positive")
    means = normalize(np.atleast_2d(mean_dirs))
    n = means.shape[0]
    u = rng.random((n, n_per))
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    phi = rng.random((n, n_per)) * 2.0 * np.pi
    r = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    local = np.stack([r * np.cos(phi), r * np.sin(phi), w], axis=-1)
    # per-row Rodrigues rotation of +z to the mean
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


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


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
