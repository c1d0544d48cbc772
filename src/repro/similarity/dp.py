"""Dynamic-programming sequence similarity.

The paper: "We use a dynamic programming approach to compute the similarity
between the feature vectors for the query and feature vectors in the
feature database."  For frame-level queries that reduces to a minimum over
stored frames, but for *video-to-video* similarity the natural DP is an
alignment of the two key-frame feature sequences.  Two classic variants are
provided:

- :func:`dtw_distance` -- dynamic time warping with the standard
  (match / insert / delete) recurrence; optional Sakoe-Chiba band.
- :func:`align_sequences` -- Needleman-Wunsch-style global alignment with a
  gap penalty; returns the alignment itself, which the examples visualize
  (:func:`align_score` is the same table without the traceback).

Both operate on arbitrary sequences plus a pairwise cost callable, so they
work directly on lists of :class:`~repro.features.base.FeatureVector`; a
caller that already holds the ``|a| x |b|`` cost matrix passes it in place
of the callable.  :func:`span_distances` is the search engine's form: one
query sequence against many stored sequences laid side by side in one cost
matrix, all tables filled by a single recurrence.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "dtw_distance",
    "align_score",
    "align_sequences",
    "sequence_similarity",
    "span_distances",
    "pairwise_cost_matrix",
]

#: a pairwise cost function, or the dense ``|a| x |b|`` matrix of its values
Cost = Union[Callable[[object, object], float], np.ndarray]


def pairwise_cost_matrix(a: Sequence, b: Sequence, cost: Cost) -> np.ndarray:
    """Dense |a| x |b| cost matrix (``cost`` itself when it already is one)."""
    if isinstance(cost, np.ndarray):
        if cost.shape != (len(a), len(b)):
            raise ValueError(
                f"cost matrix has shape {cost.shape}, sequences need {(len(a), len(b))}"
            )
        return cost
    m = np.empty((len(a), len(b)))
    for i, xa in enumerate(a):
        for j, xb in enumerate(b):
            m[i, j] = cost(xa, xb)
    return m


def dtw_distance(
    a: Sequence,
    b: Sequence,
    cost: Cost,
    window: Optional[int] = None,
    normalize: bool = True,
) -> float:
    """Dynamic time warping distance between two sequences.

    ``window`` restricts |i - j| to a Sakoe-Chiba band (None = unrestricted).
    With ``normalize=True`` the accumulated cost is divided by the warping
    path length upper bound ``len(a) + len(b)``, making values comparable
    across sequence lengths.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("DTW requires non-empty sequences")
    if window is not None and window < abs(n - m):
        window = abs(n - m)  # band must admit at least one path

    costs = pairwise_cost_matrix(a, b, cost)
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        if window is None:
            j_lo, j_hi = 1, m
        else:
            j_lo = max(1, i - window)
            j_hi = min(m, i + window)
        for j in range(j_lo, j_hi + 1):
            step = min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
            acc[i, j] = costs[i - 1, j - 1] + step
    total = float(acc[n, m])
    return total / (n + m) if normalize else total


def _align_table(costs: np.ndarray, gap_penalty: float) -> np.ndarray:
    """The filled (n+1) x (m+1) Needleman-Wunsch table for ``costs``."""
    n, m = costs.shape
    acc = np.zeros((n + 1, m + 1))
    acc[:, 0] = np.arange(n + 1) * gap_penalty
    acc[0, :] = np.arange(m + 1) * gap_penalty
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc[i, j] = min(
                acc[i - 1, j - 1] + costs[i - 1, j - 1],
                acc[i - 1, j] + gap_penalty,
                acc[i, j - 1] + gap_penalty,
            )
    return acc


def align_score(a: Sequence, b: Sequence, cost: Cost, gap_penalty: float) -> float:
    """Total cost of the best global alignment (no traceback)."""
    return float(_align_table(pairwise_cost_matrix(a, b, cost), gap_penalty)[-1, -1])


def align_sequences(
    a: Sequence,
    b: Sequence,
    cost: Cost,
    gap_penalty: float,
) -> Tuple[float, List[Tuple[Optional[int], Optional[int]]]]:
    """Global alignment (Needleman-Wunsch with costs, minimizing).

    Returns ``(total_cost, pairs)`` where each pair is ``(i, j)`` for a
    match, ``(i, None)`` for a deletion (a's element unmatched) and
    ``(None, j)`` for an insertion.
    """
    costs = pairwise_cost_matrix(a, b, cost)
    acc = _align_table(costs, gap_penalty)
    pairs: List[Tuple[Optional[int], Optional[int]]] = []
    i, j = len(a), len(b)
    total = float(acc[i, j])
    while i > 0 or j > 0:
        if i > 0 and j > 0 and np.isclose(acc[i, j], acc[i - 1, j - 1] + costs[i - 1, j - 1]):
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and np.isclose(acc[i, j], acc[i - 1, j] + gap_penalty):
            pairs.append((i - 1, None))
            i -= 1
        else:
            pairs.append((None, j - 1))
            j -= 1
    pairs.reverse()
    return total, pairs


def sequence_similarity(
    a: Sequence,
    b: Sequence,
    cost: Cost,
    method: str = "dtw",
    **kwargs,
) -> float:
    """Distance between two feature sequences: ``'dtw'`` or ``'align'``.

    For ``'align'`` a ``gap_penalty`` kwarg is required; the returned value
    is normalized by ``len(a) + len(b)`` for comparability.
    """
    if method == "dtw":
        return dtw_distance(a, b, cost, **kwargs)
    if method == "align":
        if "gap_penalty" not in kwargs:
            raise ValueError("align method requires gap_penalty")
        return align_score(a, b, cost, kwargs["gap_penalty"]) / (len(a) + len(b))
    raise ValueError(f"unknown method {method!r}")


def span_distances(
    costs: np.ndarray,
    spans: Sequence[slice],
    method: str = "dtw",
    gap_penalty: float = 0.5,
) -> np.ndarray:
    """:func:`sequence_similarity` of one query against many stored sequences.

    Stored sequence ``v`` is the columns ``costs[:, spans[v]]``.  Instead of
    one Python table per sequence, column ``j`` of every table still that
    wide is filled at once -- one vector operation over sequences per cell
    and no padding, so the work is ``costs.size`` whatever the mix of
    lengths.  Each cell is the same float64 ``min`` and ``+`` on the same
    operands as in :func:`dtw_distance` / :func:`align_score`, so the
    distances are bitwise theirs.  ``gap_penalty`` (``'align'`` only) is the
    cost of skipping a key frame; its default is the one clip queries use.
    """
    if method not in ("dtw", "align"):
        raise ValueError(f"unknown method {method!r}")
    dtw = method == "dtw"
    costs = np.asarray(costs, dtype=np.float64)
    starts = np.array([span.start for span in spans], dtype=np.intp)
    lengths = np.array([span.stop - span.start for span in spans], dtype=np.intp)
    n = costs.shape[0]
    if dtw and (n == 0 or np.any(lengths == 0)):
        raise ValueError("DTW requires non-empty sequences")
    # longest first: the sequences still open at column j are a prefix
    order = np.argsort(-lengths, kind="stable")
    starts, widths = starts[order], lengths[order]
    totals = np.empty(order.size)
    # prev / cur: columns j-1 and j of every open table, one row per query step
    prev = np.empty((n + 1, order.size))
    if dtw:
        prev[0], prev[1:] = 0.0, np.inf
    else:
        prev[:] = (np.arange(n + 1) * gap_penalty)[:, np.newaxis]
    for j in range(1, int(widths.max(initial=0)) + 1):
        alive = int(np.searchsorted(-widths, -j, side="right"))
        totals[alive : prev.shape[1]] = prev[n, alive:]  # tables ended at column j-1
        prev = prev[:, :alive]
        cell = costs[:, starts[:alive] + (j - 1)]
        cur = np.empty((n + 1, alive))
        cur[0] = np.inf if dtw else j * gap_penalty
        for i in range(1, n + 1):
            if dtw:
                step = np.minimum(np.minimum(cur[i - 1], prev[i]), prev[i - 1])
                cur[i] = cell[i - 1] + step
            else:
                cur[i] = np.minimum(
                    np.minimum(prev[i - 1] + cell[i - 1], cur[i - 1] + gap_penalty),
                    prev[i] + gap_penalty,
                )
        prev = cur
    totals[: prev.shape[1]] = prev[n]
    out = np.empty(order.size)
    out[order] = totals / (n + widths)
    return out
