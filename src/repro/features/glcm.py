"""GLCM texture (paper §4.3).

The Gray Level Co-occurrence Matrix tabulates how often pairs of gray
levels co-occur at a fixed offset.  The paper accumulates symmetric
horizontal pairs (``glcm[a][b] += 1; glcm[b][a] += 1``), normalizes by the
pair counter, and derives five Haralick statistics: angular second moment
(ASM), contrast, correlation, inverse difference moment (IDM), and entropy.

The sample dump in §5.1 is six numbers --

    ``180000.0 0.0302 87.89 2.27e-4 0.5008 6.82``

i.e. ``pixelCounter asm contrast correlation IDM entropy`` computed on a
300x300 rescaled gray frame (pixelCounter = 2 pairs per pixel).  Note the
paper's pseudo-code divides correlation by the *product of variances*
(its ``stdevx`` accumulates squared deviations without a square root);
that convention is reproduced under ``paper_exact=True`` and explains the
tiny 2.27e-4 value, while the default computes the textbook correlation in
[-1, 1].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, Rows, register_extractor
from repro.imaging import accel
from repro.imaging.image import Image
from repro.imaging.resize import nearest_indices, resize_array

__all__ = ["GlcmTexture", "glcm_matrix", "glcm_statistics"]

#: Order of the statistics in the feature vector (after pixelCounter).
STATISTIC_NAMES = ("asm", "contrast", "correlation", "idm", "entropy")


@lru_cache(maxsize=8)
def _replication_plan(
    h: int, w: int, base_size: Optional[int], step: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Source pairs standing for every pair of the rescaled ``h x w`` frame.

    A nearest-neighbour rescale to ``base_size`` square only replicates
    source pixels, so each horizontal pair of the rescaled frame is a source
    pair ``(gray[y, left], gray[y, right])`` repeated an integer number of
    times.  Returns ``(rows, left, right, weights)``: the distinct source
    rows and column pairs the rescale touches -- never more than the rescale
    has -- and, flattened row-major over ``rows x pairs``, how often each
    occurs; ``weights`` is ``None`` when every pair occurs once (no rescale,
    or a frame at least ``base_size`` wide and high).  Read-only: shared by
    every frame of that shape.
    """
    if base_size is None:
        row_index, col_index = np.arange(h), np.arange(w)
    else:
        row_index = nearest_indices(h, base_size)
        col_index = nearest_indices(w, base_size)
    rows, row_counts = np.unique(row_index, return_counts=True)
    pairs, pair_counts = np.unique(
        col_index[:-step] * w + col_index[step:], return_counts=True
    )
    plan = accel.read_only(rows, pairs // w, pairs % w)
    if row_counts.max() == 1 and pair_counts.max() == 1:
        return plan + (None,)
    weights = np.outer(row_counts, pair_counts).astype(np.float64).ravel()
    return plan + accel.read_only(weights)


def _checked(gray: np.ndarray, step: int, base_size: Optional[int]) -> np.ndarray:
    a = np.asarray(gray)
    if a.ndim != 2:
        raise ValueError("glcm_matrix expects a 2-D gray array")
    width = a.shape[1] if base_size is None else base_size
    if step < 1 or step >= width:
        raise ValueError(f"step must be in [1, width); got {step}")
    return a


def _cooccurrence(
    gray: np.ndarray, step: int, levels: int, base_size: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse symmetric co-occurrence counts of the (rescaled) frame.

    Returns ``(a, b, counts)``: the non-zero cells ``glcm[a, b]`` and their
    entry counts -- sums of the plan's integer weights, exact in float64
    whatever the order.
    """
    gray = _checked(gray, step, base_size)
    rows, left_cols, right_cols, weights = _replication_plan(
        gray.shape[0], gray.shape[1], base_size, step
    )
    src = gray.take(rows, axis=0).astype(np.int32)
    if levels != 256:
        src = src * levels // 256
    left = src.take(left_cols, axis=1).ravel()
    right = src.take(right_cols, axis=1).ravel()
    # count the pairs as unordered {a <= b}: half the cells to visit after
    keys = np.minimum(left, right) * levels + np.maximum(left, right)
    totals = np.bincount(keys, weights, minlength=levels * levels)
    cells = np.flatnonzero(totals > 0)  # a bool scan: 8x faster than a float one
    counts = totals[cells].astype(np.float64)
    a, b = np.divmod(cells, levels)
    # symmetric accumulation: {a, b} enters cell (a, b) and cell (b, a) --
    # two cells off the diagonal, the same cell twice on it
    off = a != b
    return (
        np.concatenate((a, b[off])),
        np.concatenate((b, a[off])),
        np.concatenate((np.where(off, counts, 2.0 * counts), counts[off])),
    )


def glcm_matrix(
    gray: np.ndarray, step: int = 1, levels: int = 256, base_size: Optional[int] = None
) -> np.ndarray:
    """Symmetric, normalized horizontal co-occurrence matrix.

    Pairs are ``(pixel[y, x], pixel[y, x + step])`` accumulated in both
    orders, then divided by the total number of entries (the paper's
    ``pixelCounter``).  With ``base_size`` the pairs are those of the frame
    rescaled to ``base_size`` square (nearest neighbour, §4.3's
    preprocessing): the reference path rescales first, the fast path counts
    on the source through :func:`_replication_plan` -- integer weights, so
    the same matrix bit for bit.  Returns a ``(levels, levels)`` float64
    matrix whose entries sum to 1.
    """
    if accel.fast_paths_enabled():
        a, b, counts = _cooccurrence(gray, step, levels, base_size)
        glcm = np.zeros((levels, levels))
        glcm[a, b] = counts / counts.sum()
        return glcm
    a = _checked(gray, step, base_size)
    if base_size is not None:
        a = resize_array(a, base_size, base_size, "nearest")
    left = a[:, :-step].astype(np.int64)
    right = a[:, step:].astype(np.int64)
    if levels != 256:
        left = left * levels // 256
        right = right * levels // 256
    flat = left * levels + right
    counts = np.bincount(flat.ravel(), minlength=levels * levels).astype(np.float64)
    glcm = counts.reshape(levels, levels)
    glcm = glcm + glcm.T  # symmetric accumulation, 2 entries per pair
    return glcm / glcm.sum()


def _statistics(a: np.ndarray, b: np.ndarray, p: np.ndarray, paper_exact: bool) -> dict:
    """Haralick statistics of the cells ``(a, b)`` holding probabilities ``p``:
    level grids against the full matrix, or just its non-zero cells."""
    asm = float(np.sum(p * p))
    contrast = float(np.sum((a - b) ** 2 * p))
    px = float(np.sum(a * p))
    py = float(np.sum(b * p))
    varx = float(np.sum((a - px) ** 2 * p))
    vary = float(np.sum((b - py) ** 2 * p))
    cov = float(np.sum((a - px) * (b - py) * p))
    if paper_exact:
        denom = varx * vary  # the pseudo-code's variance product
    else:
        denom = float(np.sqrt(varx * vary))
    correlation = cov / denom if denom > 1e-18 else 0.0
    idm = float(np.sum(p / (1.0 + (a - b) ** 2)))
    nz = p > 0
    entropy = float(-np.sum(p[nz] * np.log(p[nz])))
    return {
        "asm": asm,
        "contrast": contrast,
        "correlation": correlation,
        "idm": idm,
        "entropy": entropy,
    }


def glcm_statistics(glcm: np.ndarray, paper_exact: bool = False) -> dict:
    """The five Haralick statistics of a normalized GLCM, summed over the
    full ``levels x levels`` grid (the reference form; :class:`GlcmTexture`'s
    fast path visits only the non-zero cells)."""
    p = np.asarray(glcm, dtype=np.float64)
    levels = np.arange(p.shape[0], dtype=np.float64)
    return _statistics(levels[:, np.newaxis], levels[np.newaxis, :], p, paper_exact)


@register_extractor
class GlcmTexture(FeatureExtractor):
    """§4.3 extractor: 6-vector ``[pixelCounter, asm, contrast, corr, idm, entropy]``.

    ``preprocess=True`` (paper default) converts to gray with the paper's
    luminance matrix and rescales to ``base_size`` square so the statistics
    are comparable across frame sizes.
    """

    name = "glcm"
    tag = "GLCM"

    def __init__(
        self,
        step: int = 1,
        levels: int = 256,
        preprocess: bool = True,
        base_size: int = 300,
        paper_exact: bool = False,
    ):
        if levels < 2 or levels > 256:
            raise ValueError("levels must be in [2, 256]")
        self.step = step
        self.levels = levels
        self.preprocess = preprocess
        self.base_size = base_size
        self.paper_exact = paper_exact

    def extract(self, image: Image) -> FeatureVector:
        gray = image.gray()
        base_size = self.base_size if self.preprocess else None
        if accel.fast_paths_enabled():
            # the few hundred non-zero cells of 65 536; sums run in another
            # order than the full grid's, so ~1e-13 relative, not bit-equal
            a, b, counts = _cooccurrence(gray, self.step, self.levels, base_size)
            stats = _statistics(a, b, counts / counts.sum(), self.paper_exact)
        else:
            glcm = glcm_matrix(gray, self.step, self.levels, base_size)
            stats = glcm_statistics(glcm, paper_exact=self.paper_exact)
        height, width = (base_size, base_size) if self.preprocess else gray.shape
        pixel_counter = float(2 * (width - self.step) * height)
        values = [pixel_counter] + [stats[k] for k in STATISTIC_NAMES]
        return FeatureVector(kind=self.name, values=np.array(values), tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Canberra distance over the five statistics (pixelCounter excluded).

        Canberra normalizes each component by its own magnitude, which keeps
        the wildly different scales of contrast (~1e2) and ASM (~1e-2) from
        drowning each other out.
        """
        self._check_pair(a, b)
        va, vb = a.values[1:], b.values[1:]
        denom = np.abs(va) + np.abs(vb)
        mask = denom > 1e-12
        return float(np.sum(np.abs(va - vb)[mask] / denom[mask]))

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray, rows: Rows = None) -> np.ndarray:
        """Vectorized Canberra distances (pixelCounter column excluded)."""
        from repro.similarity.measures import canberra_batch

        m = self._check_batch(q, matrix)
        return canberra_batch(q.values[1:], m[:, 1:], rows)
