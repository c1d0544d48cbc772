"""Gabor wavelet texture (paper §4.4).

A bank of ``M`` scales x ``N`` orientations of Gabor filters is applied to
the gray frame; the feature is the mean and standard deviation of each
filter's response magnitude -- 2*M*N values.  With the paper's M=5, N=6 the
vector has 60 entries, matching the §5.1 dump (``gabor 60 8.7568 0.0935
...``: interleaved mean/std pairs).

Filters follow Manjunath & Ma (1996): center frequencies log-spaced in
``[Ul, Uh]``, Gaussian envelopes sized so neighbouring filters intersect at
half peak magnitude.  Filtering happens in the frequency domain with
single-sided (analytic) transfer functions, so the response magnitude is the
local texture energy envelope; per-image-size transfer stacks are cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, Rows, register_extractor
from repro.imaging import accel
from repro.imaging.image import Image

__all__ = ["GaborTexture", "gabor_filter_bank", "gabor_responses"]


def gabor_filter_bank(
    shape: Tuple[int, int],
    scales: int = 5,
    orientations: int = 6,
    ul: float = 0.05,
    uh: float = 0.4,
) -> np.ndarray:
    """Frequency-domain Gabor transfer functions for an image of ``shape``.

    Returns a real float64 array of shape ``(scales * orientations, h, w)``
    laid out scale-major (filter ``m * orientations + n``), defined on the
    unshifted FFT grid so it can multiply ``np.fft.fft2(image)`` directly.
    """
    if scales < 2:
        raise ValueError("scales must be >= 2")
    if orientations < 1:
        raise ValueError("orientations must be >= 1")
    if not 0 < ul < uh <= 0.5:
        raise ValueError("need 0 < ul < uh <= 0.5 (cycles/pixel)")
    h, w = shape
    fy = np.fft.fftfreq(h)[:, np.newaxis]  # cycles/pixel
    fx = np.fft.fftfreq(w)[np.newaxis, :]

    a = (uh / ul) ** (1.0 / (scales - 1))
    sqrt2ln2 = np.sqrt(2.0 * np.log(2.0))
    filters = np.empty((scales * orientations, h, w))
    for m in range(scales):
        f0 = uh / (a ** (scales - 1 - m))  # ul .. uh, ascending
        sigma_u = ((a - 1.0) * f0) / ((a + 1.0) * sqrt2ln2)
        sigma_v = np.tan(np.pi / (2.0 * orientations)) * f0 / sqrt2ln2
        for n in range(orientations):
            theta = np.pi * n / orientations
            # rotate the frequency grid into the filter's frame
            u = fx * np.cos(theta) + fy * np.sin(theta)
            v = -fx * np.sin(theta) + fy * np.cos(theta)
            g = np.exp(-0.5 * (((u - f0) / sigma_u) ** 2 + (v / sigma_v) ** 2))
            filters[m * orientations + n] = g
    return filters


@lru_cache(maxsize=8)
def _bank(
    shape: Tuple[int, int], scales: int, orientations: int, ul: float, uh: float
) -> np.ndarray:
    """The read-only filter bank every frame of ``shape`` shares."""
    (bank,) = accel.read_only(gabor_filter_bank(shape, scales, orientations, ul, uh))
    return bank


def gabor_responses(
    gray: np.ndarray,
    scales: int = 5,
    orientations: int = 6,
    ul: float = 0.05,
    uh: float = 0.4,
) -> np.ndarray:
    """Response magnitude per filter: shape ``(scales * orientations, h, w)``."""
    a = np.asarray(gray, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("gabor_responses expects a 2-D gray array")
    bank = _bank(a.shape, scales, orientations, ul, uh)
    spectrum = np.fft.fft2(a)
    if accel.fast_paths_enabled():
        # one broadcast product, one batched in-place inverse over the filter
        # axis: rows, then the 1/(h*w) scale, then columns.  That order is
        # the stored GABOR bytes -- the other one differs in the last bits
        h, w = a.shape
        y = bank * spectrum
        np.fft.ifft(y, axis=-2, norm="forward", out=y)
        y *= 1.0 / (h * w)
        np.fft.ifft(y, axis=-1, norm="forward", out=y)
        return np.abs(y)
    out = np.empty_like(bank)
    for i in range(bank.shape[0]):
        out[i] = np.abs(np.fft.ifft2(spectrum * bank[i]))
    return out


@register_extractor
class GaborTexture(FeatureExtractor):
    """§4.4 extractor: interleaved ``[mean, std]`` per filter (60-dim default)."""

    name = "gabor"
    tag = "gabor"
    # pocketfft and the bank-sized ufuncs release the GIL: two threads run
    # this extractor ~1.8x faster, where the others slow down
    # (docs/performance.md, "Two lanes")
    releases_gil = True

    def __init__(
        self,
        scales: int = 5,
        orientations: int = 6,
        ul: float = 0.05,
        uh: float = 0.4,
    ):
        self.scales = scales
        self.orientations = orientations
        self.ul = ul
        self.uh = uh

    @property
    def n_dims(self) -> int:
        return 2 * self.scales * self.orientations

    def extract(self, image: Image) -> FeatureVector:
        gray = image.gray()
        mags = gabor_responses(
            gray.astype(np.float64), self.scales, self.orientations, self.ul, self.uh
        )
        means = mags.mean(axis=(1, 2), keepdims=True)
        # np.std's own steps, minus its second pass for the mean
        deviations = np.subtract(mags, means, out=mags)
        np.multiply(deviations, deviations, out=deviations)
        values = np.empty(self.n_dims)
        values[0::2] = means.ravel()
        values[1::2] = np.sqrt(deviations.mean(axis=(1, 2)))
        return FeatureVector(kind=self.name, values=values, tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Euclidean distance (the standard measure for Gabor energy vectors)."""
        self._check_pair(a, b)
        return float(np.sqrt(np.sum((a.values - b.values) ** 2)))

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Vectorized Euclidean distances against a stacked matrix."""
        from repro.similarity.measures import l2_batch

        return l2_batch(q.values, self._check_batch(q, matrix), rows)
