"""Vector distance measures.

Every measure takes two 1-D float arrays of equal length and returns a
non-negative float (0 for identical inputs).  The per-feature defaults live
on the extractors; these are the building blocks.

Each measure also has a ``*_batch`` variant taking one query vector and a
``(n, d)`` matrix of candidate vectors, returning the ``(n,)`` vector of
distances in one NumPy pass.  The batch variants are the search engine's
hot path; they agree with a per-row scalar loop to floating-point noise.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

#: anything the measures accept: 1-D arrays or plain float sequences
ArrayLike = Union[np.ndarray, Sequence[float]]

__all__ = [
    "l1",
    "l2",
    "euclidean",
    "chi_square",
    "cosine_distance",
    "histogram_intersection",
    "jensen_shannon",
    "canberra",
    "l1_batch",
    "l2_batch",
    "canberra_batch",
    "chi_square_batch",
    "cosine_distance_batch",
    "histogram_intersection_batch",
    "jensen_shannon_batch",
]


def _pair(a: ArrayLike, b: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    va = np.asarray(a, dtype=np.float64).ravel()
    vb = np.asarray(b, dtype=np.float64).ravel()
    if va.shape != vb.shape:
        raise ValueError(f"vector lengths differ: {va.size} vs {vb.size}")
    return va, vb


def l1(a: ArrayLike, b: ArrayLike) -> float:
    """Manhattan distance."""
    va, vb = _pair(a, b)
    return float(np.abs(va - vb).sum())


def l2(a: ArrayLike, b: ArrayLike) -> float:
    """Euclidean distance."""
    va, vb = _pair(a, b)
    return float(np.sqrt(((va - vb) ** 2).sum()))


#: Alias for :func:`l2`.
euclidean = l2


def canberra(a: ArrayLike, b: ArrayLike) -> float:
    """Canberra distance: sum of |a-b| / (|a|+|b|), zero-denominator terms skipped."""
    va, vb = _pair(a, b)
    denom = np.abs(va) + np.abs(vb)
    mask = denom > 1e-12
    return float(np.sum(np.abs(va - vb)[mask] / denom[mask]))


def chi_square(a: ArrayLike, b: ArrayLike) -> float:
    """Chi-square histogram distance: sum of (a-b)^2 / (a+b)."""
    va, vb = _pair(a, b)
    denom = va + vb
    mask = denom > 1e-12
    return float(np.sum((va - vb)[mask] ** 2 / denom[mask]))


def cosine_distance(a: ArrayLike, b: ArrayLike) -> float:
    """1 - cosine similarity; 0 for parallel vectors, up to 2 for opposite."""
    va, vb = _pair(a, b)
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na < 1e-12 or nb < 1e-12:
        return 0.0 if na < 1e-12 and nb < 1e-12 else 1.0
    return float(1.0 - np.dot(va, vb) / (na * nb))


def histogram_intersection(a: ArrayLike, b: ArrayLike) -> float:
    """1 - normalized histogram intersection (a distance in [0, 1])."""
    va, vb = _pair(a, b)
    if np.any(va < 0) or np.any(vb < 0):
        raise ValueError("histogram intersection requires non-negative inputs")
    sa, sb = va.sum(), vb.sum()
    if sa < 1e-12 or sb < 1e-12:
        return 0.0 if sa < 1e-12 and sb < 1e-12 else 1.0
    return float(1.0 - np.minimum(va / sa, vb / sb).sum())


def jensen_shannon(a: ArrayLike, b: ArrayLike) -> float:
    """Jensen-Shannon divergence between L1-normalized distributions (nats)."""
    va, vb = _pair(a, b)
    if np.any(va < 0) or np.any(vb < 0):
        raise ValueError("JSD requires non-negative inputs")
    pa = va / max(1e-12, va.sum())
    pb = vb / max(1e-12, vb.sum())
    m = (pa + pb) / 2.0

    def _kl(p: np.ndarray, q: np.ndarray) -> float:
        mask = p > 0
        return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-300))))

    return 0.5 * _kl(pa, m) + 0.5 * _kl(pb, m)


# -- batch variants -----------------------------------------------------------
#
# One query vector against a (n, d) candidate matrix -> (n,) distances.


def _batch_pair(
    q: ArrayLike, matrix: ArrayLike, cast: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    vq = np.asarray(q, dtype=np.float64).ravel()
    m = np.asarray(matrix, dtype=np.float64 if cast else None)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"candidate matrix must be 2-D, got shape {m.shape}")
    if m.shape[1] != vq.size:
        raise ValueError(f"vector lengths differ: {vq.size} vs {m.shape[1]}")
    return vq, m


#: scratch the row-wise kernels below may hold at once.  A constant, not a
#: knob: it only has to sit inside every L2 cache this runs on, and the
#: result does not depend on it (each row is reduced on its own).
_BLOCK_BYTES = 256 * 1024

BlockKernel = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]


def _blocked(
    q: ArrayLike,
    matrix: ArrayLike,
    rows: Optional[ArrayLike],
    kernel: BlockKernel,
    n_scratch: int = 1,
) -> np.ndarray:
    """Run ``kernel`` over ``matrix[rows]`` one cache-sized block at a time.

    ``kernel(block, vq, work, out)`` reduces ``block`` (``b`` rows) into
    ``out`` (``b`` distances), working in place in ``work`` (``n_scratch``
    reused float64 buffers of the block's shape).  Rows are gathered a block
    at a time, straight into ``work[0]`` (which ``block`` then aliases), so
    no ``(n, d)`` temporary is built; every row is reduced exactly as the
    whole-matrix expression would reduce it, so the result is bitwise
    independent of the block size.
    """
    vq, m = _batch_pair(q, matrix, cast=False)  # blocks are cast as they are read
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp).ravel()
        if rows.size and not -len(m) <= rows.min() <= rows.max() < len(m):
            raise IndexError(f"row out of bounds for a matrix of {len(m)} rows")
    # np.take(out=) is unbuffered once the rows are known to be in range, but
    # copies a strided or non-float64 source whole before gathering from it:
    # those (column views, float32 stacks) gather a block-sized temporary
    take_into = m.dtype == np.float64 and m.flags.c_contiguous
    n = m.shape[0] if rows is None else rows.size
    out = np.empty(n, dtype=np.float64)
    step = max(1, _BLOCK_BYTES // (8 * n_scratch * max(1, vq.size)))
    scratch = np.empty((n_scratch, min(step, n), vq.size), dtype=np.float64)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        work = scratch[:, : hi - lo]
        if rows is None:
            block = m[lo:hi]
        elif take_into:
            block = np.take(m, rows[lo:hi], axis=0, out=work[0], mode="wrap")
        else:
            block = m[rows[lo:hi]]
        kernel(block, vq, work, out[lo:hi])
    return out


def _l1_block(block: np.ndarray, vq: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    diff = np.subtract(block, vq, out=work[0])
    np.abs(diff, out=diff)
    np.sum(diff, axis=1, out=out)


def _l2_block(block: np.ndarray, vq: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    diff = np.subtract(block, vq, out=work[0])
    np.square(diff, out=diff)
    np.sum(diff, axis=1, out=out)
    np.sqrt(out, out=out)


def _canberra_block(
    block: np.ndarray, vq: np.ndarray, work: np.ndarray, out: np.ndarray
) -> None:
    denom = np.abs(block, out=work[1])  # before work[0], which may alias block
    denom += np.abs(vq)
    num = np.subtract(block, vq, out=work[0])
    np.abs(num, out=num)
    live = denom > 1e-12
    np.divide(num, denom, out=num, where=live)
    num[~live] = 0.0
    np.sum(num, axis=1, out=out)


def l1_batch(q: ArrayLike, matrix: ArrayLike, rows: Optional[ArrayLike] = None) -> np.ndarray:
    """Row-wise Manhattan distances (over ``matrix[rows]`` when given)."""
    return _blocked(q, matrix, rows, _l1_block)


def l2_batch(q: ArrayLike, matrix: ArrayLike, rows: Optional[ArrayLike] = None) -> np.ndarray:
    """Row-wise Euclidean distances (over ``matrix[rows]`` when given)."""
    return _blocked(q, matrix, rows, _l2_block)


def canberra_batch(
    q: ArrayLike, matrix: ArrayLike, rows: Optional[ArrayLike] = None
) -> np.ndarray:
    """Row-wise Canberra distances (zero-denominator terms skipped)."""
    return _blocked(q, matrix, rows, _canberra_block, n_scratch=2)


def chi_square_batch(q: ArrayLike, matrix: ArrayLike) -> np.ndarray:
    """Row-wise chi-square histogram distances."""
    vq, m = _batch_pair(q, matrix)
    denom = m + vq
    num = (m - vq) ** 2
    return np.where(denom > 1e-12, num / np.maximum(denom, 1e-300), 0.0).sum(axis=1)


def cosine_distance_batch(q: ArrayLike, matrix: ArrayLike) -> np.ndarray:
    """Row-wise ``1 - cosine similarity`` with the scalar's zero-norm rules."""
    vq, m = _batch_pair(q, matrix)
    nq = np.linalg.norm(vq)
    norms = np.linalg.norm(m, axis=1)
    if nq < 1e-12:
        return np.where(norms < 1e-12, 0.0, 1.0)
    out = 1.0 - (m @ vq) / (np.maximum(norms, 1e-300) * nq)
    return np.where(norms < 1e-12, 1.0, out)


def histogram_intersection_batch(q: ArrayLike, matrix: ArrayLike) -> np.ndarray:
    """Row-wise ``1 - normalized histogram intersection``."""
    vq, m = _batch_pair(q, matrix)
    if np.any(vq < 0) or np.any(m < 0):
        raise ValueError("histogram intersection requires non-negative inputs")
    sq = vq.sum()
    sums = m.sum(axis=1)
    if sq < 1e-12:
        return np.where(sums < 1e-12, 0.0, 1.0)
    pq = vq / sq
    pm = m / np.maximum(sums, 1e-300)[:, np.newaxis]
    out = 1.0 - np.minimum(pm, pq).sum(axis=1)
    return np.where(sums < 1e-12, 1.0, out)


def jensen_shannon_batch(q: ArrayLike, matrix: ArrayLike) -> np.ndarray:
    """Row-wise Jensen-Shannon divergences between L1-normalized rows."""
    vq, m = _batch_pair(q, matrix)
    if np.any(vq < 0) or np.any(m < 0):
        raise ValueError("JSD requires non-negative inputs")
    pq = vq / max(1e-12, vq.sum())
    pm = m / np.maximum(m.sum(axis=1), 1e-12)[:, np.newaxis]
    mid = (pm + pq) / 2.0

    def _kl(p: np.ndarray, r: np.ndarray) -> np.ndarray:
        terms = np.where(
            p > 0, p * np.log(np.maximum(p, 1e-300) / np.maximum(r, 1e-300)), 0.0
        )
        return terms.sum(axis=1)

    return 0.5 * _kl(np.broadcast_to(pq, pm.shape), mid) + 0.5 * _kl(pm, mid)
