"""Automatic thresholding.

§4.8 binarizes via JAI's ``Histogram.getMinFuzzinessThreshold()``, which is
Huang & Wang's minimum-fuzziness method: for each candidate threshold, pixels
get a membership value to their side's mean, and the threshold minimizing the
total Shannon fuzziness entropy is chosen.  Otsu's method is provided as a
cross-check.
"""

from __future__ import annotations

import numpy as np

from repro.imaging import accel

__all__ = ["min_fuzziness_threshold", "otsu_threshold", "binarize"]


def _cumulative_means(hist: np.ndarray):
    """Cumulative counts and intensity sums from both ends."""
    levels = np.arange(hist.size, dtype=np.float64)
    w = hist.astype(np.float64)
    cum_n = np.cumsum(w)
    cum_s = np.cumsum(w * levels)
    return levels, w, cum_n, cum_s


def min_fuzziness_threshold(hist: np.ndarray) -> int:
    """Huang minimum-fuzziness threshold over a 256-bin histogram.

    Returns the threshold ``t`` such that pixels ``<= t`` are background.
    For a constant image (all mass in one bin) the bin index is returned.
    """
    hist = np.asarray(hist, dtype=np.float64)
    if hist.ndim != 1 or hist.size < 2:
        raise ValueError("histogram must be 1-D with at least 2 bins")
    total = hist.sum()
    if total <= 0:
        raise ValueError("histogram is empty")

    nz = np.nonzero(hist)[0]
    first, last = int(nz[0]), int(nz[-1])
    if first == last:
        return first

    levels, w, cum_n, cum_s = _cumulative_means(hist)
    c = float(last - first)  # normalizer so memberships stay in [0.5, 1]

    if accel.fast_paths_enabled():
        return _min_fuzziness_vectorized(levels, w, cum_n, cum_s, total, first, last, c)

    best_t, best_e = first, np.inf
    for t in range(first, last):
        n0 = cum_n[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        mu0 = cum_s[t] / n0
        mu1 = (cum_s[-1] - cum_s[t]) / n1
        # membership of level g to its class mean
        mem = np.empty(hist.size)
        mem[: t + 1] = 1.0 / (1.0 + np.abs(levels[: t + 1] - mu0) / c)
        mem[t + 1 :] = 1.0 / (1.0 + np.abs(levels[t + 1 :] - mu1) / c)
        mem = np.clip(mem, 1e-12, 1 - 1e-12)
        entropy = -(mem * np.log(mem) + (1 - mem) * np.log(1 - mem))
        e = float(np.dot(w, entropy))
        if e < best_e:
            best_e, best_t = e, t
    return int(best_t)


def _min_fuzziness_vectorized(
    levels: np.ndarray,
    w: np.ndarray,
    cum_n: np.ndarray,
    cum_s: np.ndarray,
    total: float,
    first: int,
    last: int,
    c: float,
) -> int:
    """All candidate thresholds in one pass; same first-minimum semantics."""
    ts = np.arange(first, last)
    n0 = cum_n[ts]
    n1 = total - n0
    valid = (n0 > 0) & (n1 > 0)
    mu0 = cum_s[ts] / np.where(n0 > 0, n0, 1.0)
    mu1 = (cum_s[-1] - cum_s[ts]) / np.where(n1 > 0, n1, 1.0)
    # membership and entropy only where the histogram has mass; the other
    # columns meet a zero weight, so they stay zero in a full-width buffer,
    # which keeps the product below a (T, bins) @ (bins,) whose summation
    # order does not depend on which bins are empty
    cols = np.flatnonzero(w)
    grid = levels[cols][np.newaxis, :]
    # and only at thresholds with mass: an empty bin's row is the row below
    # it (same class sums), gathered back so the product keeps one row per
    # threshold (gemv's rounding of a row depends on the row count)
    has_mass = w[first:last] > 0
    live = np.flatnonzero(has_mass)
    # select the class mean first, then evaluate the membership formula
    # once -- identical per-element arithmetic, half the matrix work; in
    # place, one buffer for the membership and one for its complement
    mem = np.where(
        grid <= ts[live, np.newaxis], mu0[live, np.newaxis], mu1[live, np.newaxis]
    )
    np.subtract(grid, mem, out=mem)
    np.abs(mem, out=mem)
    mem /= c
    mem += 1.0
    np.divide(1.0, mem, out=mem)
    # memberships lie in [0.5, 1] (|g - mu| <= c), so the reference's
    # lower clip at 1e-12 never binds
    np.minimum(mem, 1 - 1e-12, out=mem)
    other = np.subtract(1, mem)
    # one extra zero column stands for every empty bin: two row-and-column
    # takes build the (T, bins) matrix without a fancy-index scatter
    entropy = np.zeros((live.size, cols.size + 1))
    term = entropy[:, :-1]
    np.log(mem, out=term)
    term *= mem
    mem = np.log(other, out=mem)
    mem *= other
    term += mem
    np.negative(term, out=term)
    column = np.full(w.size, cols.size)
    column[cols] = np.arange(cols.size)
    e = entropy.take(column, axis=1).take(np.cumsum(has_mass) - 1, axis=0) @ w
    e[~valid] = np.inf
    return int(ts[np.argmin(e)])


def otsu_threshold(hist: np.ndarray) -> int:
    """Otsu's between-class-variance-maximizing threshold."""
    hist = np.asarray(hist, dtype=np.float64)
    total = hist.sum()
    if total <= 0:
        raise ValueError("histogram is empty")
    levels = np.arange(hist.size, dtype=np.float64)
    w0 = np.cumsum(hist)
    s0 = np.cumsum(hist * levels)
    w1 = total - w0
    mu_total = s0[-1]
    valid = (w0 > 0) & (w1 > 0)
    mu0 = np.where(w0 > 0, s0 / np.maximum(w0, 1e-12), 0.0)
    mu1 = np.where(w1 > 0, (mu_total - s0) / np.maximum(w1, 1e-12), 0.0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    between[~valid] = -1.0
    return int(np.argmax(between))


def binarize(gray: np.ndarray, threshold: float = None) -> np.ndarray:
    """Binarize a gray array: pixel > threshold -> True (foreground).

    With ``threshold=None`` the minimum-fuzziness threshold of the image's
    own 256-bin histogram is used, replicating §4.8's preprocessor.
    """
    a = np.asarray(gray)
    if a.ndim != 2:
        raise ValueError("binarize expects a 2-D gray array")
    if threshold is None:
        hist = np.bincount(a.astype(np.uint8, copy=False).ravel(), minlength=256)
        threshold = min_fuzziness_threshold(hist)
    return a > threshold
