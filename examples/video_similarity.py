"""Video-to-video retrieval with dynamic-programming sequence alignment.

The paper: "We use a dynamic programming approach to compute the similarity
between the feature vectors for the query and feature vectors in the
feature database."  This example queries the system with whole clips
(DTW over key-frame feature sequences) and draws one gap-penalty global
alignment between two clips' key-frame signatures.

Run:  python examples/video_similarity.py
"""

from typing import List, Optional, Tuple

import numpy as np

from repro import VideoRetrievalSystem, make_corpus
from repro.similarity.dp import dtw_distance, pairwise_cost_matrix
from repro.video.generator import VideoSpec, generate_video
from repro.video.keyframes import KeyFrameExtractor


def align_sequences(
    a, b, cost, gap_penalty: float
) -> Tuple[float, List[Tuple[Optional[int], Optional[int]]]]:
    """Global alignment (Needleman-Wunsch with costs, minimizing).

    Returns ``(total_cost, pairs)`` where each pair is ``(i, j)`` for a
    match, ``(i, None)`` for a deletion (a's element unmatched) and
    ``(None, j)`` for an insertion.
    """
    costs = pairwise_cost_matrix(a, b, cost)
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
    pairs: List[Tuple[Optional[int], Optional[int]]] = []
    i, j = n, m
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
    return float(acc[n, m]), pairs


def main() -> None:
    corpus = make_corpus(videos_per_category=3, seed=21, n_shots=3, frames_per_shot=5)
    system = VideoRetrievalSystem.in_memory()
    admin = system.login_admin()
    for video in corpus:
        admin.add_video(video)
    print(f"corpus: {system.n_videos()} videos / {system.n_key_frames()} key frames\n")

    # Query with a *fresh* sports clip (not in the corpus) -- different seed,
    # same scene model: retrieval should surface the stored sports videos.
    query = generate_video(VideoSpec(category="sports", seed=777, n_shots=3, frames_per_shot=5))
    matches = system.search_by_video(query, top_k=5)
    print(f"video query: fresh '{query.category}' clip ({query.n_frames} frames)")
    for i, m in enumerate(matches, start=1):
        print(f"  #{i}: {m.video_name:<16} [{m.category}] DTW distance={m.distance:.4f}")

    in_top3 = sum(1 for m in matches[:3] if m.category == "sports")
    print(f"\nsports videos in the top 3: {in_top3}/3")

    # Show one raw DP alignment between two clips' key-frame signatures.
    extractor = KeyFrameExtractor(base_size=150)
    a = [extractor.signature(f) for _i, f in extractor.extract(query.frames)]
    other = next(v for v in corpus if v.category == "sports")
    b = [extractor.signature(f) for _i, f in extractor.extract(other.frames)]

    def cost(sa, sb):
        return float(np.sum(np.sqrt(np.sum((sa - sb) ** 2, axis=1))))

    d = dtw_distance(a, b, cost)
    total, pairs = align_sequences(a, b, cost, gap_penalty=2500.0)
    print(f"\nDP against stored '{other.name}': "
          f"DTW={d:.1f}, alignment cost={total:.1f}")
    rendered = ["(gap,%d)" % j if i is None else "(%d,gap)" % i if j is None else f"({i},{j})"
                for i, j in pairs]
    print("alignment path:", " ".join(rendered))


if __name__ == "__main__":
    main()
