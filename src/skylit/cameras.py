"""Pinhole cameras: world-to-camera extrinsics E = [R|t], intrinsics K."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import WORLD_UP, ConfigError, normalize

FOV_X_DEG = 55.0  # horizontal field of view of every camera


@dataclass
class Camera:
    K: np.ndarray       # (3,3)
    E: np.ndarray       # (3,4) world-to-camera [R|t]
    width: int
    height: int

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=np.float64)
        self.E = np.asarray(self.E, dtype=np.float64)
        if abs(np.linalg.det(self.K)) < 1e-12:
            raise ConfigError("camera intrinsics are not invertible")

    @property
    def R(self):
        return self.E[:, :3]

    @property
    def t(self):
        return self.E[:, 3]

    @property
    def origin(self):
        return -self.R.T @ self.t

    def ray_dirs(self, pixels):
        """World-space unit ray directions through pixel centers (N,2) (u,v)."""
        px = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        homog = np.stack(
            [px[:, 0] + 0.5, px[:, 1] + 0.5, np.ones(px.shape[0])], axis=1
        )
        cam = homog @ np.linalg.inv(self.K).T
        world = cam @ self.R  # R^T applied to rows
        return normalize(world)

    def all_pixels(self):
        u, v = np.meshgrid(np.arange(self.width), np.arange(self.height))
        return np.stack([u.reshape(-1), v.reshape(-1)], axis=1)

    @classmethod
    def look_at(cls, eye, target, width, height):
        """A camera at ``eye`` looking at ``target``, world +z up, FOV_X_DEG wide."""
        eye = np.asarray(eye, dtype=np.float64)
        z = normalize(np.asarray(target, dtype=np.float64) - eye)
        x = np.cross(z, WORLD_UP)
        nx = np.linalg.norm(x)
        if nx < 1e-9:  # looking straight along up: pick an arbitrary right
            x = np.array([1.0, 0.0, 0.0])
        else:
            x = x / nx
        y = np.cross(z, x)
        rot = np.stack([x, y, z])
        t = -rot @ eye
        fx = (width / 2.0) / np.tan(np.radians(FOV_X_DEG) / 2.0)
        k = np.array(
            [[fx, 0.0, width / 2.0], [0.0, fx, height / 2.0], [0.0, 0.0, 1.0]]
        )
        return cls(K=k, E=np.concatenate([rot, t[:, None]], axis=1),
                   width=width, height=height)
