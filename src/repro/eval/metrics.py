"""Retrieval quality metrics.

All metrics consume a boolean relevance list in rank order (the judged
output of one query) and are purely arithmetic, so they are shared by the
exact ground truth and the noisy user-study pipeline.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["precision_at_k", "recall_at_k", "average_precision"]


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def precision_at_k(relevance: Sequence[bool], k: int) -> float:
    """Fraction of the top-k that is relevant.

    Shorter result lists are treated as padded with irrelevant items (the
    system failed to return anything useful there), which matches how the
    paper can quote precision at 100 for every query.
    """
    _check_k(k)
    top = list(relevance[:k])
    return sum(bool(r) for r in top) / float(k)


def recall_at_k(relevance: Sequence[bool], k: int, n_relevant: int) -> float:
    """Fraction of all relevant items found in the top-k."""
    _check_k(k)
    if n_relevant <= 0:
        return 0.0
    found = sum(bool(r) for r in relevance[:k])
    return min(1.0, found / float(n_relevant))


def average_precision(relevance: Sequence[bool], n_relevant: int = None) -> float:
    """Mean of precision at each relevant rank (AP).

    ``n_relevant`` defaults to the number of relevant items present in the
    list; pass the corpus-wide count to penalize missed items.
    """
    hits = 0
    precision_sum = 0.0
    for i, rel in enumerate(relevance):
        if rel:
            hits += 1
            precision_sum += hits / (i + 1.0)
    denom = n_relevant if n_relevant is not None else hits
    if denom is None or denom <= 0:
        return 0.0
    return precision_sum / denom
