"""Binary morphology with the paper's structuring element.

The region-growing preprocessor (§4.8) binarizes the frame and then applies
dilate, erode, erode, dilate with a 5x5 kernel whose active area is the
central 3x3 box::

    0 0 0 0 0
    0 1 1 1 0
    0 1 1 1 0
    0 1 1 1 0
    0 0 0 0 0

That close-then-open sequence removes speckle while preserving region shape.

The paper's 3x3 box is separable: for :data:`PAPER_KERNEL` the fast path
runs one pass along the rows and one down the columns, each an OR
(dilate) or AND (erode) of the two one-pixel shifts, with the same zero
boundary.  Booleans, so the result is the per-offset loop's bit for bit;
that loop stays as the reference under ``accel.reference_paths()`` and
for every other kernel.
"""

from __future__ import annotations

import numpy as np

from repro.imaging import accel

__all__ = [
    "PAPER_KERNEL",
    "binary_dilate",
    "binary_erode",
    "binary_open",
    "binary_close",
]

#: §4.8's 5x5 structuring element (only the central 3x3 is set).
PAPER_KERNEL = np.array(
    [
        [0, 0, 0, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 1, 1, 1, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=bool,
)


def _as_binary(arr: np.ndarray) -> np.ndarray:
    a = np.asarray(arr)
    if a.ndim != 2:
        raise ValueError("morphology expects a 2-D array")
    return a.astype(bool)


def _offsets(kernel: np.ndarray):
    k = np.asarray(kernel).astype(bool)
    cy, cx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    ys, xs = np.nonzero(k)
    return list(zip(ys - cy, xs - cx))


def _paper_box(kernel: np.ndarray) -> bool:
    """Whether the fast path runs: the kernel is the paper's 3x3 box."""
    if not accel.fast_paths_enabled():
        return False
    return kernel is PAPER_KERNEL or np.array_equal(kernel, PAPER_KERNEL)


def _dilate3_axis0(a: np.ndarray) -> np.ndarray:
    """``out[y] = a[y - 1] | a[y] | a[y + 1]`` (0 outside)."""
    out = a.copy()
    out[1:] |= a[:-1]
    out[:-1] |= a[1:]
    return out


def _erode3_axis0(a: np.ndarray) -> np.ndarray:
    """``out[y] = a[y - 1] & a[y] & a[y + 1]`` (0 outside)."""
    out = a.copy()
    out[1:] &= a[:-1]
    out[:-1] &= a[1:]
    out[:1] = False
    out[-1:] = False
    return out


def binary_dilate(arr: np.ndarray, kernel: np.ndarray = PAPER_KERNEL) -> np.ndarray:
    """Binary dilation: a pixel is set if any kernel-covered pixel is set."""
    a = _as_binary(arr)
    if _paper_box(kernel):
        return _dilate3_axis0(_dilate3_axis0(a.T).T)
    out = np.zeros_like(a)
    h, w = a.shape
    for dy, dx in _offsets(kernel):
        src = a[
            max(0, -dy) : h - max(0, dy),
            max(0, -dx) : w - max(0, dx),
        ]
        out[
            max(0, dy) : h - max(0, -dy),
            max(0, dx) : w - max(0, -dx),
        ] |= src
    return out


def binary_erode(arr: np.ndarray, kernel: np.ndarray = PAPER_KERNEL) -> np.ndarray:
    """Binary erosion: a pixel survives only if all kernel-covered pixels are set.

    Pixels outside the image are treated as unset, so regions shrink at the
    border (matching JAI's zero boundary).
    """
    a = _as_binary(arr)
    if _paper_box(kernel):
        return _erode3_axis0(_erode3_axis0(a.T).T)
    out = np.ones_like(a)
    h, w = a.shape
    for dy, dx in _offsets(kernel):
        shifted = np.zeros_like(a)
        src = a[
            max(0, dy) : h - max(0, -dy),
            max(0, dx) : w - max(0, -dx),
        ]
        shifted[
            max(0, -dy) : h - max(0, dy),
            max(0, -dx) : w - max(0, dx),
        ] = src
        out &= shifted
    return out


def binary_open(arr: np.ndarray, kernel: np.ndarray = PAPER_KERNEL) -> np.ndarray:
    """Erosion followed by dilation (removes small foreground speckle)."""
    return binary_dilate(binary_erode(arr, kernel), kernel)


def binary_close(arr: np.ndarray, kernel: np.ndarray = PAPER_KERNEL) -> np.ndarray:
    """Dilation followed by erosion (fills small holes)."""
    return binary_erode(binary_dilate(arr, kernel), kernel)
