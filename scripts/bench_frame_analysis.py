#!/usr/bin/env python
"""Per-kernel and per-lane timing of key-frame analysis, ms per frame.

Regenerates the table in docs/performance.md ("Frame analysis per
kernel"): every kernel the calling lane of
``repro.core.lanes.analyse_frames`` runs, each extractor, the calling
lane's five extractors together, and ``analyse_frames`` itself on one
lane and on two at 1, 3 and 26 frames.  The frames are 100 seeded 64x48
generator frames (the benchmark's frame size); every figure is the
fastest of 7 passes over them, divided by the number of frames.

Run it once per tree to compare two commits::

    PYTHONPATH=src python scripts/bench_frame_analysis.py
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence

import numpy as np

from repro.core.config import TABLE1_FEATURES
from repro.core.lanes import analyse_frames
from repro.features.base import get_extractor
from repro.features.correlogram import correlogram_counts
from repro.features.tamura import coarseness, directionality, tamura_contrast
from repro.imaging.color import quantize_hsv, rgb_to_gray
from repro.imaging.image import Image
from repro.imaging.morphology import PAPER_KERNEL, binary_dilate, binary_erode
from repro.imaging.threshold import binarize
from repro.runtime import WorkerPool
from repro.video.generator import make_corpus

N_FRAMES = 100
PASSES = 7
LANE_FRAMES = (1, 3, 26)


class _OneLane:
    """A pool without a helper lane: ``analyse_frames`` on one thread."""

    @staticmethod
    def lane():
        return None


def _frames() -> List[Image]:
    videos = make_corpus(videos_per_category=1, seed=2012, width=64, height=48,
                         n_shots=4, frames_per_shot=5)
    frames = [f for v in videos for f in v.frames]
    return frames[:N_FRAMES]


def _fastest_ms(
    fn: Callable[[object], object], inputs: Callable[[], Sequence[object]], per: int = 1
) -> float:
    """Fastest of ``PASSES`` passes of ``fn`` over a fresh ``inputs()``,
    ms per input (per ``per`` frames when an input is a batch of them)."""
    best = float("inf")
    for _ in range(PASSES):
        batch = inputs()
        t0 = time.perf_counter()
        for x in batch:
            fn(x)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0 / (len(batch) * per)


def _morphology(binary: np.ndarray) -> np.ndarray:
    """§4.8's close-then-open, op by op (what ``preprocess_binary`` runs)."""
    out = binary_dilate(binary, PAPER_KERNEL)
    out = binary_erode(out, PAPER_KERNEL)
    out = binary_erode(out, PAPER_KERNEL)
    return binary_dilate(out, PAPER_KERNEL)


def main() -> int:
    frames = _frames()
    rgbs = [f.to_rgb().pixels for f in frames]
    grays = [rgb_to_gray(p) for p in rgbs]
    floats = [g.astype(np.float64) for g in grays]
    binaries = [binarize(g) for g in grays]
    quantized = [quantize_hsv(p) for p in rgbs]
    extractors = {n: get_extractor(n) for n in TABLE1_FEATURES}
    calling = {n: e for n, e in extractors.items() if not e.releases_gil}

    def fixed(values):
        return lambda: values

    def fresh(n: int) -> List[List[Image]]:
        # new Images in batches of n: no gray() memo carries over
        return [[Image(p) for p in rgbs[i : i + n]] for i in range(0, N_FRAMES - n + 1, n)]

    def memoized() -> List[Image]:
        images = [batch[0] for batch in fresh(1)]
        for image in images:
            image.gray()
        return images

    rows = [
        ("rgb_to_gray", _fastest_ms(rgb_to_gray, fixed(rgbs))),
        ("binarize", _fastest_ms(binarize, fixed(grays))),
        ("morphology (4 ops)", _fastest_ms(_morphology, fixed(binaries))),
        ("coarseness", _fastest_ms(coarseness, fixed(grays))),
        ("tamura_contrast", _fastest_ms(tamura_contrast, fixed(floats))),
        ("directionality", _fastest_ms(directionality, fixed(floats))),
        ("quantize_hsv", _fastest_ms(quantize_hsv, fixed(rgbs))),
        ("correlogram_counts",
         _fastest_ms(lambda q: correlogram_counts(q, 64, 4), fixed(quantized))),
    ]
    for name, extractor in extractors.items():
        rows.append((f"extract: {name}", _fastest_ms(extractor.extract, memoized)))

    def analyse(extractor_set, pool):
        return lambda batch: analyse_frames(batch, extractor_set, pool)

    rows.append(("calling lane (5 extractors, incl. gray)",
                 _fastest_ms(analyse(calling, _OneLane()), lambda: fresh(1))))
    with WorkerPool() as pool:
        two_lanes = pool.lane() is not None
        for n in LANE_FRAMES:
            one = _fastest_ms(analyse(extractors, _OneLane()), lambda: fresh(n), n)
            rows.append((f"analyse_frames, 1 lane, {n} frames", one))
            if two_lanes:
                two = _fastest_ms(analyse(extractors, pool), lambda: fresh(n), n)
                rows.append((f"analyse_frames, 2 lanes, {n} frames", two))

    print(f"{N_FRAMES} frames of 64x48, fastest of {PASSES}, ms per frame"
          + ("" if two_lanes else " (one CPU: no two-lane rows)"))
    width = max(len(name) for name, _ in rows)
    for name, ms in rows:
        print(f"{name:<{width}}  {ms:7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
