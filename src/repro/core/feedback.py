"""Relevance feedback (extension).

The paper frames retrieval as interactive -- "help users to retrieve
desired video ... through user interactions" -- and cites interactive
user-oriented retrieval as related work, but implements a single-shot
query.  This extension closes the loop with the classic Rocchio scheme:

1. the user runs a query and marks some results relevant / irrelevant;
2. **query-point movement**: each feature's query vector moves toward the
   centroid of marked-relevant vectors and away from the marked-irrelevant
   centroid (``q' = alpha*q + beta*mean(R) - gamma*mean(N)``, clipped at 0
   because all our feature vectors are non-negative by construction);
3. **feature reweighting**: features that separate the marked sets well
   (irrelevant examples far, relevant examples close) gain weight.

Usage::

    session = FeedbackSession(system, query_image)
    results = session.search(top_k=20)
    session.mark_relevant(results[0].frame_id, results[2].frame_id)
    session.mark_irrelevant(results[5].frame_id)
    improved = session.refine(top_k=20)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.lanes import analyse_frames
from repro.core.results import SearchResults
from repro.features.base import FeatureVector
from repro.imaging.image import Image

__all__ = ["FeedbackSession", "rocchio_move", "separation_weights"]


def rocchio_move(
    query: FeatureVector,
    relevant: List[FeatureVector],
    irrelevant: List[FeatureVector],
    alpha: float = 1.0,
    beta: float = 0.75,
    gamma: float = 0.25,
) -> FeatureVector:
    """One Rocchio update of a single feature vector (clipped at zero)."""
    moved = alpha * query.values.copy()
    if relevant:
        moved = moved + beta * np.mean([v.values for v in relevant], axis=0)
    if irrelevant:
        moved = moved - gamma * np.mean([v.values for v in irrelevant], axis=0)
    return FeatureVector(kind=query.kind, values=np.maximum(moved, 0.0), tag=query.tag)


def separation_weights(
    per_feature_relevant: Dict[str, List[float]],
    per_feature_irrelevant: Dict[str, List[float]],
    floor: float = 0.1,
    ceiling: float = 10.0,
) -> Dict[str, float]:
    """Weight each feature by how well it separates the marked sets.

    ``weight = mean(irrelevant distances) / mean(relevant distances)`` --
    a feature whose relevant examples sit close and irrelevant ones far
    earns weight > 1.  With only one marked class the weight stays 1.
    Weights are clipped into ``[floor, ceiling]``.
    """
    weights: Dict[str, float] = {}
    for name in per_feature_relevant:
        rel = per_feature_relevant[name]
        irr = per_feature_irrelevant.get(name, [])
        if not rel or not irr:
            weights[name] = 1.0
            continue
        mean_rel = float(np.mean(rel))
        mean_irr = float(np.mean(irr))
        if mean_rel < 1e-12:
            weights[name] = ceiling
        else:
            weights[name] = float(np.clip(mean_irr / mean_rel, floor, ceiling))
    return weights


class FeedbackSession:
    """An interactive query: search, mark, refine, repeat."""

    def __init__(self, system, query_image: Image, features: Optional[List[str]] = None):
        self.system = system
        engine = system._engine
        self._engine = engine
        names = engine._resolve_features(features)
        self.query_vectors: Dict[str, FeatureVector] = analyse_frames(
            [query_image], {n: engine.extractors[n] for n in names}, engine._pool
        ).features[0]
        self.weights: Dict[str, float] = {
            name: system.config.weight_of(name) for name in names
        }
        self._relevant: Set[int] = set()
        self._irrelevant: Set[int] = set()
        self.rounds = 0

    # -- marking ---------------------------------------------------------------

    def mark_relevant(self, *frame_ids: int) -> None:
        for fid in frame_ids:
            if fid not in self._engine.store:
                raise KeyError(f"no stored frame {fid}")
            self._irrelevant.discard(fid)
            self._relevant.add(fid)

    def mark_irrelevant(self, *frame_ids: int) -> None:
        for fid in frame_ids:
            if fid not in self._engine.store:
                raise KeyError(f"no stored frame {fid}")
            self._relevant.discard(fid)
            self._irrelevant.add(fid)

    @property
    def n_marked(self) -> int:
        return len(self._relevant) + len(self._irrelevant)

    # -- querying -----------------------------------------------------------------

    def search(self, top_k: int = 20) -> SearchResults:
        """Rank with the current (possibly moved) query state."""
        return self._engine.query_with_vectors(
            self.query_vectors, top_k=top_k, weights=dict(self.weights)
        )

    def refine(
        self,
        top_k: int = 20,
        alpha: float = 1.0,
        beta: float = 0.75,
        gamma: float = 0.25,
        reweight: bool = True,
    ) -> SearchResults:
        """Apply one Rocchio round using the current marks, then re-rank."""
        if not self._relevant and not self._irrelevant:
            raise ValueError("refine() needs at least one marked result")
        store = self._engine.store
        rel_records = [store.get(fid) for fid in sorted(self._relevant)]
        irr_records = [store.get(fid) for fid in sorted(self._irrelevant)]

        per_rel: Dict[str, List[float]] = {}
        per_irr: Dict[str, List[float]] = {}
        for name, query in self.query_vectors.items():
            extractor = self._engine.extractors[name]
            per_rel[name] = [extractor.distance(query, r.features[name]) for r in rel_records]
            per_irr[name] = [extractor.distance(query, r.features[name]) for r in irr_records]
            self.query_vectors[name] = rocchio_move(
                query,
                [r.features[name] for r in rel_records],
                [r.features[name] for r in irr_records],
                alpha=alpha,
                beta=beta,
                gamma=gamma,
            )
        if reweight:
            learned = separation_weights(per_rel, per_irr)
            self.weights = {
                name: self.weights[name] * learned[name] for name in self.weights
            }
        self.rounds += 1
        return self.search(top_k=top_k)
