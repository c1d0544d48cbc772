"""Color-space conversion and quantization.

The paper's extractors need three conversions:

- RGB -> gray, using the band-combine matrix ``{0.114, 0.587, 0.299}`` that
  appears verbatim in the GLCM and region-growing pseudo-code (§4.3, §4.8).
- RGB -> HSV, used by the auto color correlogram (§4.7), which quantizes
  pixels "in HSV color space".
- Quantizers that map continuous color to a small number of discrete bins
  (the histogram's 256 levels, the correlogram's 64 HSV bins).
"""

from __future__ import annotations

import numpy as np

from repro.imaging import accel

__all__ = [
    "GRAY_WEIGHTS",
    "rgb_to_gray",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "quantize_uniform",
    "quantize_hsv",
    "quantize_rgb_to_index",
]

#: The paper's luminance matrix, given in (B, G, R) order in the pseudo-code;
#: expressed here in (R, G, B) order.
GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def rgb_to_gray(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma: ``0.299 R + 0.587 G + 0.114 B``, rounded to uint8.

    Accepts ``(h, w, 3)`` uint8 (or float) and returns ``(h, w)`` uint8.
    A 2-D input is assumed already gray and returned as uint8 unchanged.
    """
    arr = np.asarray(rgb)
    if arr.ndim == 2:
        return arr.astype(np.uint8, copy=False)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) array, got {arr.shape}")
    w = np.asarray(GRAY_WEIGHTS, dtype=np.float64)
    gray = arr.astype(np.float64) @ w
    if accel.fast_paths_enabled():
        # same clamp as np.clip without its per-call dtype-limit lookups
        return np.minimum(np.maximum(np.rint(gray), 0), 255).astype(np.uint8)
    return np.clip(np.rint(gray), 0, 255).astype(np.uint8)


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV.

    Input: ``(..., 3)`` uint8 or float in [0, 255].
    Output: float64 array of the same shape with
    H in [0, 360), S in [0, 1], V in [0, 1].
    """
    return np.stack(_hsv_planes(rgb), axis=-1)


def _hsv_planes(rgb: np.ndarray):
    """The ``(h, s, v)`` planes of :func:`rgb_to_hsv`, computed from the
    channel planes (no ``(..., 3)`` float copy)."""
    arr = np.asarray(rgb)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected trailing RGB axis of size 3, got {arr.shape}")
    r, g, b = (np.divide(arr[..., i], 255.0, dtype=np.float64) for i in range(3))
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    nz = delta > 0
    rmax = nz & (maxc == r)
    gmax = nz & (maxc == g) & ~rmax
    bmax = nz & ~rmax & ~gmax

    if accel.fast_paths_enabled():
        # one hue plane: each branch's numerator, one division, then each
        # branch's offset -- the reference's per-element arithmetic.  Only
        # the r-max branch's x in [-1, 1] can be negative, and there
        # ``mod(x, 6)`` is ``x + 6``; ``+ 0.0`` is its +0 for a -0
        h = np.zeros_like(maxc)
        np.subtract(g, b, out=h, where=rmax)
        np.subtract(b, r, out=h, where=gmax)
        np.subtract(r, g, out=h, where=bmax)
        np.divide(h, delta, out=h, where=nz)
        h += 0.0
        np.add(h, 2.0, out=h, where=gmax)
        np.add(h, 4.0, out=h, where=bmax)
        np.add(h, 6.0, out=h, where=h < 0)
        h *= 60.0
        s = np.divide(delta, maxc, out=np.zeros_like(maxc), where=maxc > 0)
        return h, s, maxc

    h = np.zeros_like(maxc)
    h[rmax] = np.mod((g[rmax] - b[rmax]) / delta[rmax], 6.0)
    h[gmax] = (b[gmax] - r[gmax]) / delta[gmax] + 2.0
    h[bmax] = (r[bmax] - g[bmax]) / delta[bmax] + 4.0
    h *= 60.0

    s = np.zeros_like(maxc)
    vs = maxc > 0
    s[vs] = delta[vs] / maxc[vs]

    return h, s, maxc


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB (uint8).

    Input: ``(..., 3)`` with H in [0, 360), S and V in [0, 1].
    """
    arr = np.asarray(hsv, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected trailing HSV axis of size 3, got {arr.shape}")
    h, s, v = arr[..., 0], arr[..., 1], arr[..., 2]
    h = np.mod(h, 360.0) / 60.0
    i = np.floor(h).astype(np.int64)
    f = h - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))

    i = i % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


def quantize_uniform(values: np.ndarray, levels: int, maximum: float = 255.0) -> np.ndarray:
    """Uniformly quantize ``values`` in [0, maximum] into ``levels`` bins.

    Returns int64 bin indices in [0, levels - 1].
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    arr = np.asarray(values, dtype=np.float64)
    idx = np.floor(arr * levels / (maximum + 1e-12)).astype(np.int64)
    return np.clip(idx, 0, levels - 1)


def quantize_hsv(
    rgb: np.ndarray,
    h_bins: int = 8,
    s_bins: int = 4,
    v_bins: int = 2,
) -> np.ndarray:
    """Quantize RGB pixels into ``h_bins * s_bins * v_bins`` HSV-space bins.

    This is the correlogram's "quantize the actual pixel (done in HSV color
    space)" step.  The default 8x4x2 = 64 bins matches the correlogram
    configuration whose output the paper dumps in §5.1.

    Input: ``(..., 3)`` RGB. Output: int64 bin index array of shape ``(...)``.
    """
    h, s, v = _hsv_planes(rgb)
    if accel.fast_paths_enabled() and np.asarray(rgb).dtype == np.uint8:
        if min(h_bins, s_bins, v_bins) < 1:
            raise ValueError("levels must be >= 1")
        # byte colours put h in [0, 360] and s, v in [0, 1]: every floor
        # already lies inside its bins (the clamps are no-ops) and the bin
        # arithmetic on those small integers is exact in float64, so the
        # planes are quantized in place and cast once
        for plane, levels, maximum in ((h, h_bins, 360.0), (s, s_bins, 1.0), (v, v_bins, 1.0)):
            plane *= levels
            plane /= maximum + 1e-12
            np.floor(plane, out=plane)
        h *= s_bins
        h += s
        h *= v_bins
        h += v
        return h.astype(np.int64)
    hq = quantize_uniform(h, h_bins, maximum=360.0)
    sq = quantize_uniform(s, s_bins, maximum=1.0)
    vq = quantize_uniform(v, v_bins, maximum=1.0)
    return (hq * s_bins + sq) * v_bins + vq


def quantize_rgb_to_index(rgb: np.ndarray, bins_per_channel: int = 4) -> np.ndarray:
    """Quantize RGB pixels into ``bins_per_channel ** 3`` flat bin indices."""
    arr = np.asarray(rgb)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected trailing RGB axis of size 3, got {arr.shape}")
    q = quantize_uniform(arr, bins_per_channel)
    return (q[..., 0] * bins_per_channel + q[..., 1]) * bins_per_channel + q[..., 2]
