"""File formats: PFM (linear HDR), PPM/PGM (LDR and masks), pose files,
flat-text configs, and the reader of a checkpoint's numpy ``.npz`` archive.

The images are header + raster with no third-party codecs; PFM scanlines are
bottom-up per the format convention, PPM/PGM top-down.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .cameras import Camera
from .geometry import ConfigError


def write_pfm(path, image):
    """Float image to PFM: 'PF' for (H,W,3), 'Pf' for (H,W); little-endian."""
    img = np.asarray(image, dtype=np.float32)
    color = img.ndim == 3
    if color and img.shape[2] != 3:
        raise ValueError("PFM color images must have 3 channels")
    with open(path, "wb") as fh:
        fh.write(b"PF\n" if color else b"Pf\n")
        fh.write(f"{img.shape[1]} {img.shape[0]}\n".encode())
        fh.write(b"-1.0\n")
        fh.write(np.ascontiguousarray(img[::-1]).astype("<f4").tobytes())


def read_pfm(path):
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        color = header == b"PF"
        if header not in (b"PF", b"Pf"):
            raise ValueError(f"not a PFM file: {path}")
        w, h = map(int, fh.readline().split())
        scale = float(fh.readline())
        dtype = "<f4" if scale < 0 else ">f4"
        count = w * h * (3 if color else 1)
        data = np.frombuffer(fh.read(count * 4), dtype=dtype).astype(np.float64)
    shape = (h, w, 3) if color else (h, w)
    return data.reshape(shape)[::-1].copy()


def write_ppm(path, image01):
    """8-bit binary PPM from an image already in [0,1]."""
    img = np.clip(np.asarray(image01), 0.0, 1.0)
    raster = np.rint(img * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(raster.tobytes())


def write_pgm(path, values):
    arr = np.asarray(values, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(arr.tobytes())


def read_pgm(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"not a binary PGM: {path}")
        w, h = map(int, fh.readline().split())
        fh.readline()  # maxval
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    return data.reshape(h, w).copy()


def write_pose_file(path, cameras):
    """One camera per line: 12 floats of E row-major, 9 floats of K row-major."""
    with open(path, "w", encoding="utf-8") as fh:
        for cam in cameras:
            nums = list(cam.E.reshape(-1)) + list(cam.K.reshape(-1))
            fh.write(" ".join(f"{x:.17g}" for x in nums) + "\n")


def read_pose_file(path, width, height):
    cameras = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            vals = np.array([float(x) for x in line.split()])
            if vals.size != 21:
                raise ValueError("pose lines must hold 12 E + 9 K floats")
            cameras.append(
                Camera(K=vals[12:].reshape(3, 3), E=vals[:12].reshape(3, 4),
                       width=width, height=height)
            )
    return cameras


def write_config(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# skylit config\n")
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def read_config(path):
    """Flat 'key = value' text with '#' comments; values stay strings."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


def read_npz(path):
    """Every array in the ``.npz`` archive at ``path``, by name; ConfigError
    naming the file when it is no readable archive (a missing file stays
    FileNotFoundError)."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a readable .npz archive ({exc})") from exc
