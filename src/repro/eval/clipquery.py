"""The clip-query experiment: video P@5 and MAP for query-by-clip.

Protocol:

1. Build the Table 1 evaluation corpus (:func:`build_table1_system`,
   ``videos_per_category`` videos of 6 shots x 5 frames per category).
2. Generate fresh clips, ``clips_per_category`` per category
   (``n_shots`` x ``frames_per_shot`` frames each), from seeds no stored
   video uses.
3. Rank every stored video against each clip with
   :meth:`VideoRetrievalSystem.search_by_video` (the DP sequence
   similarity over key-frame features).
4. Relevant = same category.  Report the mean video precision at 5 and
   the MAP over the full ranking (each AP divided by the category's
   stored-video count).

``benchmarks/bench_ablation.py`` runs it on seeds 2012 and 4242.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.eval.metrics import average_precision, precision_at_k
from repro.eval.table1 import build_table1_system
from repro.video.generator import CATEGORIES, VideoSpec, generate_video

__all__ = ["ClipQueryResult", "run_clip_queries"]

#: offset of the clip seeds from a category's corpus seeds (the corpus
#: uses ``seed + 1000 * category + v`` for its ``v``-th video)
_CLIP_SEED_OFFSET = 500


@dataclass
class ClipQueryResult:
    """Per-clip P@5 and AP behind the two means."""

    seed: int
    precision_at_5: List[float]
    average_precision: List[float]
    n_videos: int

    @property
    def p_at_5(self) -> float:
        return sum(self.precision_at_5) / len(self.precision_at_5)

    @property
    def map(self) -> float:
        return sum(self.average_precision) / len(self.average_precision)

    def to_text(self) -> str:
        return (
            f"seed {self.seed}: {len(self.precision_at_5)} clips over "
            f"{self.n_videos} videos  P@5 {self.p_at_5:.3f}  MAP {self.map:.3f}"
        )


def run_clip_queries(
    seed: int = 2012,
    config: Optional[SystemConfig] = None,
    videos_per_category: int = 8,
    clips_per_category: int = 6,
    n_shots: int = 3,
    frames_per_shot: int = 5,
    categories: Sequence[str] = CATEGORIES,
) -> ClipQueryResult:
    """Run the clip-query experiment on one seed."""
    if clips_per_category > _CLIP_SEED_OFFSET or videos_per_category > _CLIP_SEED_OFFSET:
        raise ValueError(f"at most {_CLIP_SEED_OFFSET} videos or clips per category")
    system, _gt = build_table1_system(
        videos_per_category=videos_per_category,
        seed=seed,
        config=config,
        categories=categories,
    )
    n_videos = system.n_videos()
    p5: List[float] = []
    aps: List[float] = []
    for ci, category in enumerate(categories):
        for c in range(clips_per_category):
            clip = generate_video(
                VideoSpec(
                    category=category,
                    seed=seed + ci * 1000 + _CLIP_SEED_OFFSET + c,
                    n_shots=n_shots,
                    frames_per_shot=frames_per_shot,
                )
            )
            matches = system.search_by_video(clip, top_k=n_videos)
            relevant = [m.category == category for m in matches]
            p5.append(precision_at_k(relevant, 5))
            aps.append(average_precision(relevant, n_relevant=videos_per_category))
    return ClipQueryResult(seed, p5, aps, n_videos)
