"""Image metrics over optional evaluation masks."""

from __future__ import annotations

import math

import numpy as np


def mse(a, b, mask=None):
    """Mean squared error over masked pixels; images share dimensions.
    ValueError when ``mask`` selects no pixel: the mean of nothing is
    undefined."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("mse inputs must share dimensions")
    sq = (a - b) ** 2
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("mse: the mask selects no pixel")
        sq = sq[mask]
    return float(np.mean(sq))


def psnr(a, b, mask=None):
    """-10 log10(mse); identical images report +inf. ValueError, as from
    ``mse``, when ``mask`` selects no pixel."""
    err = mse(a, b, mask=mask)
    if err == 0.0:
        return math.inf
    return -10.0 * math.log10(err)
