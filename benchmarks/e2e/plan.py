"""What runs: corpus sizes, request-list lengths, and the inputs a seed yields.

Everything a run executes is a function of ``(scale, seconds, seed)`` and
the constants below -- never of the machine or of a clock.  The corpora
are fixed by :data:`CORPUS_SEED` (they are the database, pinned in
``manifest.json``); ``--seed`` decides only what is *asked* of them (see
:class:`Inputs`).  Two seeds give different inputs with the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.imaging.image import Image
from repro.video.generator import (
    CATEGORIES,
    SyntheticVideo,
    VideoSpec,
    generate_video,
    make_corpus,
)

#: seed of every committed corpus (BENCH_throughput.json used the same one)
CORPUS_SEED = 2012
FRAME_WIDTH, FRAME_HEIGHT = 64, 48
FRAMES_PER_SHOT = 3

WORKLOADS = ("serve_1k", "library_churn", "scan_10k", "ann_10k", "shard_10k")
#: fixed, not derived from nproc: the crossover number must compare like with like
N_SHARDS = 2
ANN_NPROBE = 4
TOP_K = 20


@dataclass(frozen=True)
class Scale:
    """Corpus and request-list sizes of one rung."""

    #: ``real_1k``: generator videos really ingested into a durable library
    real_videos: int
    real_shots: int
    #: ``feat_10k``: real seed library, expanded in feature space
    feat_seed_videos: int
    feat_seed_shots: int
    feat_keyframes: int
    #: ``library_churn``: bulk ingest, then one video per cycle
    churn_bulk_videos: int
    churn_bulk_shots: int
    churn_cycle_shots: int
    #: distinct queries per pass of the pass-based workloads
    queries: int
    #: oracle-checked queries on the real libraries / on the 10k corpus
    verify_real: int
    verify_feat: int
    #: ANN answers compared with the exact engine for ``recall_at_10``
    #: (a query's overlap is nearly all-or-nothing: few queries, noisy mean)
    recall_queries: int
    #: clip queries per round on the 10k systems (a few hundred ms each there)
    feat_clips: int
    #: ``serve_1k``, per round: closed-loop requests, seconds of the
    #: reference rung; seconds of a ladder rung (traced run)
    serve_closed: int
    serve_rung_s: float
    ladder_rung_s: float
    #: ``library_churn``: write/read cycles per round
    churn_cycles: int
    #: IVF cells of ``ann_10k`` (probing ``ANN_NPROBE`` of them)
    ann_cells: int = 64


SCALES = {
    # what BENCHMARK.json runs: sized so a round takes ROUND_SECONDS on the
    # seed commit, and 4 + 22 x 3 runs of 24 s of rounds plus set-up fit the
    # driver's 3420 s on a 2-core sandbox.  The names keep
    # the issue's order of magnitude ("1k"); the real library holds ~260
    # key frames.
    "bench": Scale(
        real_videos=10, real_shots=25,
        feat_seed_videos=10, feat_seed_shots=16, feat_keyframes=10_000,
        churn_bulk_videos=8, churn_bulk_shots=25, churn_cycle_shots=25,
        queries=200, verify_real=20, verify_feat=5, recall_queries=200, feat_clips=2,
        serve_closed=120, serve_rung_s=3.5, ladder_rung_s=2.5, churn_cycles=6,
    ),
    # the issue's sizes, for a hand run (real_1k alone ingests for ~30 s)
    "full": Scale(
        real_videos=20, real_shots=50,
        feat_seed_videos=10, feat_seed_shots=26, feat_keyframes=10_000,
        churn_bulk_videos=12, churn_bulk_shots=50, churn_cycle_shots=25,
        queries=250, verify_real=20, verify_feat=5, recall_queries=250, feat_clips=3,
        serve_closed=400, serve_rung_s=6.0, ladder_rung_s=4.0, churn_cycles=10,
    ),
    # the test suite's rung: <= 200 key frames anywhere
    "smoke": Scale(
        real_videos=5, real_shots=4,
        feat_seed_videos=5, feat_seed_shots=3, feat_keyframes=150,
        churn_bulk_videos=3, churn_bulk_shots=3, churn_cycle_shots=3,
        queries=20, verify_real=5, verify_feat=3, recall_queries=10, feat_clips=1,
        serve_closed=24, serve_rung_s=0.5, ladder_rung_s=0.5, churn_cycles=2,
        ann_cells=8,
    ),
}

# -- rounds ------------------------------------------------------------------
#
# A run's measured region is one fixed list of operations -- a *round* --
# executed ``rounds(--seconds)`` times on identical inputs from an identical
# starting state (a fresh server, a fresh copy of the library, a freshly
# opened replica).  Each operation's time is the fastest of its rounds: the
# sandbox has stalls of a few hundred ms and whole stretches 15-30 % slower,
# and an operation is slowed by them in some rounds, not in all.  What
# varies between operations (the input-dependent spread) is kept: p50 / p95
# are taken across the operations.  Lists are fixed, never timed out:
# ``--seconds`` only picks the number of rounds, so two runs with the same
# arguments execute identical inputs.

#: what one round takes on the seed commit's sandbox: ``--seconds`` of any
#: workload is about that long a measured region
ROUND_SECONDS = {
    "serve_1k": 6.0, "library_churn": 4.0, "scan_10k": 6.0, "ann_10k": 6.0, "shard_10k": 6.0,
}

SERVE_HOT_SET = 16
SERVE_HOT_SHARE = 0.25
SERVE_WARMUP_REQUESTS = 8
#: the first query of a cycle is the post-write query, the other 11 are steady
CHURN_QUERIES_PER_CYCLE = 12
CHURN_CLIPS_PER_CYCLE = 3
CLIP_SHOTS, CLIP_FRAMES_PER_SHOT = 3, 4
#: fresh starts per round whose fastest-round median is ``cold_start_ms``
#: (a server restart costs ~1 s, an IVF build ~2 s)
COLD_STARTS = {"serve_1k": 1, "library_churn": 5, "scan_10k": 3, "ann_10k": 1, "shard_10k": 2}

# -- the serve_1k open-loop ladder ---------------------------------------------
#
# Placed once on the seed commit, where the bench-scale closed loop saturates
# at 105-125 qps and the knee of the open loop sits near 105: the reference
# rung is far below it, 85 passes with room (0.8 of the knee), 130 fails
# clearly (1.2x).  Constants from here on -- never derived from the machine
# at run time.

LADDER_REFERENCE_QPS = 40
LADDER_QPS = (60, 85, 130, 160, 200)
SLO_P95_MS = 50.0
SLO_ACHIEVED_SHARE = 0.97


def rounds(seconds: int, workload: str) -> int:
    return max(2, round(seconds / ROUND_SECONDS[workload]))


def spread(n_events: int, n_steps: int, offset: float = 0.0) -> set:
    """The steps, evenly spaced over ``n_steps``, before which an event happens.

    Samples of one metric are spread over the whole round rather than
    bunched: the sandbox's stalls come in bursts, and a burst should meet
    a minority of any metric's samples."""
    n_events = min(n_events, n_steps)
    return {int((i + offset) * n_steps / n_events) for i in range(n_events)}


def rung_requests(qps: int, rung_seconds: float) -> int:
    return max(10, round(qps * rung_seconds))


# -- corpora (fixed by CORPUS_SEED) --------------------------------------------


def _corpus(n_videos: int, n_shots: int, seed: int) -> List[SyntheticVideo]:
    """``n_videos`` generator videos, categories interleaved so any prefix
    (and any ingest order) covers them evenly."""
    per_category = -(-n_videos // len(CATEGORIES))
    videos = make_corpus(
        videos_per_category=per_category,
        seed=seed,
        width=FRAME_WIDTH,
        height=FRAME_HEIGHT,
        n_shots=n_shots,
        frames_per_shot=FRAMES_PER_SHOT,
    )
    interleaved = [
        videos[ci * per_category + v]
        for v in range(per_category)
        for ci in range(len(CATEGORIES))
    ]
    return interleaved[:n_videos]


#: corpus -> (seed, Scale field of its video count, Scale field of its shots);
#: the seeds are far enough apart that no two corpora share a video
_RECIPES = {
    "real_1k": (CORPUS_SEED, "real_videos", "real_shots"),
    "feat_10k": (CORPUS_SEED + 500, "feat_seed_videos", "feat_seed_shots"),
    "churn_bulk": (CORPUS_SEED + 700, "churn_bulk_videos", "churn_bulk_shots"),
}


def recipe(corpus: str, scale: Scale) -> dict:
    """The generator parameters of one corpus (recorded in the manifest)."""
    seed, videos, shots = _RECIPES[corpus]
    return {
        "seed": seed,
        "videos": getattr(scale, videos),
        "shots": getattr(scale, shots),
        "frames_per_shot": FRAMES_PER_SHOT,
        "frame": [FRAME_WIDTH, FRAME_HEIGHT],
    }


def corpus_videos(corpus: str, scale: Scale) -> List[SyntheticVideo]:
    """``real_1k`` (the BENCH_throughput.json recipe), the real library
    ``feat_10k`` is expanded from, or ``library_churn``'s bulk phase."""
    params = recipe(corpus, scale)
    return _corpus(params["videos"], params["shots"], params["seed"])


# -- inputs (drawn from --seed) ------------------------------------------------

#: held-out scenes come from generator seeds far above any corpus seed
#: (< 10 000), so a query frame is never a stored frame
HELD_OUT_SEED = 1_000_000
#: +/- gray levels of the per-seed pixel noise
PIXEL_NOISE = 2


@dataclass(frozen=True)
class Query:
    """One query frame with its ground-truth category."""

    image: Image
    category: str


def _held_out(offset: int, category: str, n_shots: int, frames_per_shot: int) -> SyntheticVideo:
    return generate_video(
        VideoSpec(
            category=category,
            seed=HELD_OUT_SEED + offset,
            width=FRAME_WIDTH,
            height=FRAME_HEIGHT,
            n_shots=n_shots,
            frames_per_shot=frames_per_shot,
        )
    )


class Inputs:
    """Everything ``--seed`` decides.

    The *scenes* asked about are fixed and held out of every corpus; the
    seed decides each frame's pixel noise, the order of every list and the
    hot-set draws.  Two seeds therefore ask different questions (no two
    frames are equal, so nothing cached or memoised carries over) of the
    same population -- a run's numbers move with the program and the
    machine, not with which scenes a seed happened to draw.  (Drawing the
    scenes per seed moved ``query_p50_ms`` on ``scan_10k`` by +/- 12 %: a
    query's cost follows its gray-level bucket.)
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def _noisy(self, image: Image, rng: np.random.Generator) -> Image:
        noise = rng.integers(-PIXEL_NOISE, PIXEL_NOISE + 1, size=image.pixels.shape)
        return Image(np.clip(image.pixels.astype(np.int16) + noise, 0, 255).astype(np.uint8))

    def _noisy_video(
        self, video: SyntheticVideo, rng: np.random.Generator, name: str
    ) -> SyntheticVideo:
        return replace(
            video, name=name, frames=tuple(self._noisy(f, rng) for f in video.frames)
        )

    def frames(self, stream: int, n: int) -> List[Query]:
        """``n`` distinct held-out frames, each its own scene, the same
        number per category, categories interleaved.  ``stream`` (< 50)
        names an independent pool."""
        if not 0 <= stream < 50:
            raise ValueError("frame streams are 0..49")
        rng = self.rng(stream)
        per_category = -(-n // len(CATEGORIES))
        pools = []
        for ci, category in enumerate(CATEGORIES):
            video = _held_out(stream * len(CATEGORIES) + ci, category, per_category, 1)
            pools.append(
                [
                    Query(self._noisy(video.frames[i], rng), category)
                    for i in rng.permutation(per_category)
                ]
            )
        interleaved = [q for group in zip(*pools) for q in group]
        return interleaved[:n]

    def clips(self, n: int) -> List[SyntheticVideo]:
        """``n`` short query clips (3 shots x 4 frames), categories cycling."""
        rng = self.rng(50)
        return [
            self._noisy_video(
                _held_out(300 + i, CATEGORIES[i % len(CATEGORIES)],
                          CLIP_SHOTS, CLIP_FRAMES_PER_SHOT),
                rng, f"clip_{self.seed}_{i:03d}",
            )
            for i in range(n)
        ]

    def churn_video(self, cycle: int, n_shots: int) -> SyntheticVideo:
        """The video cycle ``cycle`` adds to the churned library."""
        return self._noisy_video(
            _held_out(400 + cycle, CATEGORIES[cycle % len(CATEGORIES)],
                      n_shots, FRAMES_PER_SHOT),
            self.rng(51 + cycle), f"churn_{self.seed}_{cycle:03d}",
        )

    def hot_mix(self, stream: int, n: int) -> List[Tuple[bool, int]]:
        """The kinds of ``n`` serve_1k requests, in order.

        Exactly ``SERVE_HOT_SHARE`` of the positions are hot; a hot
        position carries the index of the hot-set image it repeats, a cold
        one the index of its own unique frame (of pool ``stream``).
        """
        rng = self.rng(stream)
        n_hot = round(n * SERVE_HOT_SHARE)
        hot_at = set(rng.permutation(n)[:n_hot].tolist())
        hot_pick = rng.integers(0, SERVE_HOT_SET, size=n)
        mix, unique = [], 0
        for i in range(n):
            if i in hot_at:
                mix.append((True, int(hot_pick[i])))
            else:
                mix.append((False, unique))
                unique += 1
        return mix
