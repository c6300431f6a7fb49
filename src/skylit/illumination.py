"""Latent-conditioned spherical HDR radiance model.

A fixed bank of von Mises-Fisher lobes decodes a low-dimensional latent
Z (3 x K of per-lobe log-RGB amplitudes) into a strictly positive HDR
environment: L(d) = gamma * exp(sum_k Z[:,k] * b_k(d)) with
b_k(d) = exp(LOBE_KAPPA * (axis_k . d - 1)). Z = 0 decodes to the constant
unit environment, and the normal prior ||Z||^2 is meaningful because the
decoder is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .geometry import spherical_to_dir

LOBE_KAPPA = 8.0  # the concentration of every lobe


@dataclass(frozen=True)
class LobeDecoder:
    axes: np.ndarray          # (K,3) unit lobe directions

    @property
    def n_lobes(self):
        return self.axes.shape[0]

    @classmethod
    def default(cls, n_lobes=16):
        """Two polar caps plus two azimuthal rings of (n_lobes - 2) / 2 lobes
        each, at 35 degrees above and below the horizon; n_lobes must be
        even and at least 2."""
        if n_lobes < 2 or n_lobes % 2:
            raise ValueError(f"lobe count must be 2 + 2 * ring_size, got {n_lobes}")
        ring_size = (n_lobes - 2) // 2
        elev = np.radians(35.0)
        axes = [np.array([0.0, 0.0, 1.0])]
        for j in range(ring_size):
            phi = 2.0 * np.pi * j / ring_size
            axes.append(spherical_to_dir(np.pi / 2 - elev, phi))
        for j in range(ring_size):
            phi = 2.0 * np.pi * j / ring_size
            axes.append(spherical_to_dir(np.pi / 2 + elev, phi))
        axes.append(np.array([0.0, 0.0, -1.0]))
        axes = np.asarray(axes)
        return cls(axes=axes)

    def basis(self, dirs):
        """b_k(d) for unit rows ``dirs``; (D,K), values in (0,1]."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        return np.exp(LOBE_KAPPA * (dirs @ self.axes.T - 1.0))


class IlluminationBank:
    """The per-image skies: latents Z (N,3,K) and log scales log_gamma (N,),
    row i being image i's sky. Training binds both arrays as parameter
    slots; a single sky is a one-row bank."""

    def __init__(self, decoder, Z, log_gamma):
        self.decoder = decoder
        self.Z = np.array(Z, dtype=np.float64)
        self.log_gamma = np.array(log_gamma, dtype=np.float64)
        if self.log_gamma.ndim != 1 or self.Z.shape != (
                self.log_gamma.shape + (3, decoder.n_lobes)):
            raise ValueError(f"Z {self.Z.shape} and log_gamma {self.log_gamma.shape} "
                             f"are not (N, 3, {decoder.n_lobes}) and (N,)")

    @classmethod
    def zeros(cls, decoder, n_images):
        """``n_images`` unit skies (Z = 0, gamma = 1), as training starts."""
        return cls(decoder, np.zeros((n_images, 3, decoder.n_lobes)),
                   np.zeros(n_images))


class BoundIllumination:
    """Per-tape binding of a bank."""

    def __init__(self, tape, bank, trainable=True):
        self.decoder = bank.decoder
        if trainable:
            self.Z = tape.parameter("illum_Z", bank.Z)
            self.log_gamma = tape.parameter("illum_log_gamma", bank.log_gamma)
        else:
            self.Z = tp._lift(bank.Z)
            self.log_gamma = tp._lift(bank.log_gamma)

    def radiance_all(self, dirs):
        """HDR radiance of every image at shared directions; (N,D,3) Var."""
        basis = self.decoder.basis(dirs)
        log_l = tp.einsum2("ick,dk->idc", self.Z, basis)
        gamma = tp.reshape(tp.exp(self.log_gamma), (-1, 1, 1))
        return gamma * tp.exp(log_l)

    def radiance_rows(self, dirs, image_idx):
        """Per-ray radiance at per-ray directions; (R,3) Var."""
        basis = self.decoder.basis(dirs)
        z_rows = tp.take_rows(self.Z, image_idx)
        log_l = tp.einsum2("rck,rk->rc", z_rows, basis)
        gamma = tp.reshape(tp.exp(tp.take_rows(self.log_gamma, image_idx)), (-1, 1))
        return gamma * tp.exp(log_l)


def radiance(bank, row, dirs):
    """HDR RGB radiance of the bank's sky ``row`` at unit directions; plain
    numpy (D,3)."""
    basis = bank.decoder.basis(dirs)
    log_l = basis @ bank.Z[row].T
    return float(np.exp(bank.log_gamma[row])) * np.exp(log_l)


def prior_loss(Z):
    """Squared Frobenius norm of the latents, the mean over the images
    (the rows of ``Z``) by the rule of every term in ``losses``; Var in, Var
    out."""
    return tp.vsum(Z * Z) / max(Z.shape[0], 1)


def export_envmap(bank, row, width, height):
    """Equirectangular HDR map, row 0 at the zenith; width must be 2*height."""
    if width != 2 * height:
        raise ValueError("equirectangular export requires width = 2 * height")
    theta = (np.arange(height) + 0.5) / height * np.pi
    phi = (np.arange(width) + 0.5) / width * 2.0 * np.pi - np.pi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = spherical_to_dir(tt.reshape(-1), pp.reshape(-1))
    return radiance(bank, row, dirs).reshape(height, width, 3)

