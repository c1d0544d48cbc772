"""Similarity: distance measures, DTW sequence alignment, feature fusion.

The paper "use[s] a dynamic programming approach to compute the similarity
between the feature vectors for the query and feature vectors in the
feature database" and fuses multiple features into the "Combined" ranking
that Table 1 shows beating every individual feature.
"""

from repro.similarity.measures import euclidean, l1, l2
from repro.similarity.dp import dtw_distance
from repro.similarity.fusion import CombinedScorer, FeatureWeights, normalize_scores

__all__ = [
    "l1",
    "l2",
    "euclidean",
    "dtw_distance",
    "CombinedScorer",
    "FeatureWeights",
    "normalize_scores",
]
