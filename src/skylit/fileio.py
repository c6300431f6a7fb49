"""File formats: PFM (linear HDR), PPM/PGM (LDR and masks), pose files,
flat-text configs, and the reader of a checkpoint's numpy ``.npz`` archive.

The images are header + raster with no third-party codecs; PFM scanlines are
bottom-up per the format convention, PPM/PGM top-down.
"""

from __future__ import annotations

import contextlib
import math
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
    """A PFM image, (H,W,3) or (H,W); ConfigError naming a damaged file."""
    with open(path, "rb") as fh, _naming(path):
        header = fh.readline().strip()
        if header not in (b"PF", b"Pf"):
            raise ValueError("not a PFM file")
        w, h = map(int, fh.readline().split())
        dtype = "<f4" if float(fh.readline()) < 0 else ">f4"
        shape = (h, w, 3) if header == b"PF" else (h, w)
        data = _raster(fh, shape, dtype).astype(np.float64)
    return data[::-1].copy()


@contextlib.contextmanager
def _naming(where):
    """Re-raise a ValueError or ConfigError as a ConfigError naming ``where``."""
    try:
        yield
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _raster(fh, shape, dtype):
    """The raster of ``shape`` that follows the header in ``fh``."""
    want = math.prod(shape) * np.dtype(dtype).itemsize
    raw = fh.read(max(want, 0))
    if min(shape) < 0 or len(raw) < want:
        raise ValueError(f"{len(raw)} raster bytes for an image of shape {shape}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


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
    """A binary PGM as (H,W) uint8; ConfigError naming a damaged file."""
    with open(path, "rb") as fh, _naming(path):
        if fh.readline().strip() != b"P5":
            raise ValueError("not a binary PGM")
        w, h = map(int, fh.readline().split())
        fh.readline()  # maxval
        return _raster(fh, (h, w), np.uint8).copy()


def write_pose_file(path, cameras):
    """One camera per line: 12 floats of E row-major, 9 floats of K row-major."""
    with open(path, "w", encoding="utf-8") as fh:
        for cam in cameras:
            nums = list(cam.E.reshape(-1)) + list(cam.K.reshape(-1))
            fh.write(" ".join(f"{x:.17g}" for x in nums) + "\n")


def read_pose_file(path, width, height):
    """A camera per non-blank line; ConfigError naming a damaged line (one
    that is not 21 finite floats, or whose K does not invert)."""
    cameras = []
    with open(path, "rb") as fh:  # float() reads bytes: no decoding to fail
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            with _naming(f"{path}:{lineno}"):
                vals = np.array([float(x) for x in line.split()])
                if vals.size != 21:
                    raise ValueError("pose lines must hold 12 E + 9 K floats")
                if not np.all(np.isfinite(vals)):
                    raise ValueError("pose numbers must be finite")
                cameras.append(
                    Camera(K=vals[12:].reshape(3, 3), E=vals[:12].reshape(3, 4),
                           width=width, height=height)
                )
    return cameras


def write_config(path, entries):
    """Entries as 'key = value' lines; ConfigError naming the key, before
    any write, for one that would not read back as written: a '#' or line
    break in it, surrounding whitespace, or an '=' in the key."""
    lines = ["# skylit config\n"]
    for key, value in entries.items():
        key, text = str(key), str(value)
        if "=" in key or any(t != t.strip() or any(c in t for c in "#\r\n")
                             for t in (key, text)):
            raise ConfigError(f"config key {key!r} = {text!r} would not read back")
        lines.append(f"{key} = {text}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_config(path):
    """Flat 'key = value' UTF-8 text with '#' comments; values stay strings.
    ConfigError naming ``path:line`` for a line that is not UTF-8, is not
    'key = value' or gives a key twice."""
    entries = {}
    with open(path, "rb") as fh:  # split as text mode splits: \n, \r\n or \r
        for lineno, raw in enumerate(fh.read().splitlines(), 1):
            with _naming(f"{path}:{lineno}"):
                line = raw.decode("utf-8")
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (t.strip() for t in stripped.split("=", 1))
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: {key!r} is given twice")
            entries[key] = value
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
