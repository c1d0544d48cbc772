"""Dynamic-programming sequence similarity.

The paper: "We use a dynamic programming approach to compute the similarity
between the feature vectors for the query and feature vectors in the
feature database."  For frame-level queries that reduces to a minimum over
stored frames, but for *video-to-video* similarity the natural DP is an
alignment of the two key-frame feature sequences: dynamic time warping with
the standard (match / insert / delete) recurrence.

:func:`dtw_distance` aligns two arbitrary sequences under a pairwise cost
callable (so it works directly on lists of
:class:`~repro.features.base.FeatureVector`), with an optional Sakoe-Chiba
band; a caller that already holds the ``|a| x |b|`` cost matrix passes it
in place of the callable.  :func:`span_distances` is the search engine's
form: one query sequence against many stored sequences laid side by side in
one cost matrix, all tables filled by a single recurrence.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "dtw_distance",
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


def span_distances(costs: np.ndarray, spans: Sequence[slice]) -> np.ndarray:
    """:func:`dtw_distance` of one query against many stored sequences.

    Stored sequence ``v`` is the columns ``costs[:, spans[v]]``.  Instead of
    one Python table per sequence, column ``j`` of every table still that
    wide is filled at once -- one vector operation over sequences per cell
    and no padding, so the work is ``costs.size`` whatever the mix of
    lengths.  Each cell is the same float64 ``min`` and ``+`` on the same
    operands as in :func:`dtw_distance`, so the distances are bitwise its.
    """
    costs = np.asarray(costs, dtype=np.float64)
    starts = np.array([span.start for span in spans], dtype=np.intp)
    lengths = np.array([span.stop - span.start for span in spans], dtype=np.intp)
    n = costs.shape[0]
    if n == 0 or np.any(lengths == 0):
        raise ValueError("DTW requires non-empty sequences")
    # longest first: the sequences still open at column j are a prefix
    order = np.argsort(-lengths, kind="stable")
    starts, widths = starts[order], lengths[order]
    totals = np.empty(order.size)
    # prev / cur: columns j-1 and j of every open table, one row per query step
    prev = np.empty((n + 1, order.size))
    prev[0], prev[1:] = 0.0, np.inf
    for j in range(1, int(widths.max(initial=0)) + 1):
        alive = int(np.searchsorted(-widths, -j, side="right"))
        totals[alive : prev.shape[1]] = prev[n, alive:]  # tables ended at column j-1
        prev = prev[:, :alive]
        cell = costs[:, starts[:alive] + (j - 1)]
        cur = np.empty((n + 1, alive))
        cur[0] = np.inf
        for i in range(1, n + 1):
            step = np.minimum(np.minimum(cur[i - 1], prev[i]), prev[i - 1])
            cur[i] = cell[i - 1] + step
        prev = cur
    totals[: prev.shape[1]] = prev[n]
    out = np.empty(order.size)
    out[order] = totals / (n + widths)
    return out
