"""Histogram computation.

The range-finder index (§4.2) consumes a 256-bin gray-level histogram.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image

__all__ = ["gray_histogram"]


def gray_histogram(image: Image, bins: int = 256) -> np.ndarray:
    """256-bin (by default) histogram of the gray-level image.

    RGB inputs are converted with the paper's luminance matrix first.
    Returns an int64 array of length ``bins`` whose sum is ``width*height``.
    """
    gray = image.gray()
    if bins == 256:
        return np.bincount(gray.ravel(), minlength=256).astype(np.int64)
    idx = (gray.astype(np.int64) * bins) // 256
    return np.bincount(idx.ravel(), minlength=bins).astype(np.int64)
