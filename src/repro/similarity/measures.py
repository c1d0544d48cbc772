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
    "canberra",
    "l1_batch",
    "l2_batch",
    "canberra_batch",
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


# -- batch variants -----------------------------------------------------------
#
# One query vector against a (n, d) candidate matrix -> (n,) distances.


def _batch_pair(q: ArrayLike, matrix: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    vq = np.asarray(q, dtype=np.float64).ravel()
    m = np.asarray(matrix)  # blocks are cast as they are read
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
    vq, m = _batch_pair(q, matrix)
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
