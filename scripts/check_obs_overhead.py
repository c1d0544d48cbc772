#!/usr/bin/env python
"""Gate: instrumented-vs-disabled observability overhead on the query path.

Builds a small in-memory store, then times the same frame searches
through two engines over identical data:

- ``disabled`` -- the default ``NULL_OBS`` engine (the ``obs_enabled=false``
  fast path: every instrumentation point is one no-op call on a shared
  null object)
- ``enabled``  -- a fully instrumented engine (metrics registry + tracer)

The two run in interleaved pairs: each pair answers one query frame on
both engines, back to back.  The pairs cycle through several key frames
in rounds, and the engine that goes first alternates from round to
round, so every frame is timed in both orders.
The overhead is the median of the per-pair ``enabled / disabled`` time
ratios, so drift in the machine's speed over the run (another process,
frequency changes) falls on both halves of a pair instead of on one
engine's whole sample.  Fails when it exceeds ``--max-overhead``.

Usage::

    PYTHONPATH=src python scripts/check_obs_overhead.py
    PYTHONPATH=src python scripts/check_obs_overhead.py --max-overhead 0.05
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import List, Optional

from repro.core.config import SystemConfig
from repro.core.search import SearchEngine
from repro.core.system import VideoRetrievalSystem
from repro.obs import Obs
from repro.video.generator import make_corpus

#: query frames the pairs cycle through
N_QUERIES = 6


def _seconds(engine: SearchEngine, query) -> float:
    t0 = time.perf_counter()
    engine.query_frame(query, top_k=10, use_index=False)
    return time.perf_counter() - t0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-overhead", type=float, default=0.08,
                        help="allowed fractional enabled-vs-disabled slowdown, "
                             "median of the per-pair ratios (default: %(default)s)")
    parser.add_argument("--videos", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=25,
                        help="interleaved pairs per query frame (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=2012)
    args = parser.parse_args(argv)

    system = VideoRetrievalSystem.in_memory(SystemConfig())
    videos = make_corpus(videos_per_category=1, seed=args.seed, width=64, height=48,
                         n_shots=6, frames_per_shot=3)[: args.videos]
    for video in videos:
        system.admin.add_video(video)
    query_config = system.config.with_(query_cache_size=0)
    disabled = SearchEngine(query_config, system._store, system._index)
    enabled = SearchEngine(query_config, system._store, system._index, obs=Obs())
    frames = [frame for video in videos for frame in video.frames]
    queries = frames[:: max(1, len(frames) // N_QUERIES)][:N_QUERIES]

    # one warm-up answer per engine and frame, so neither pays first-run costs
    for query in queries:
        _seconds(disabled, query)
        _seconds(enabled, query)
    ratios, disabled_s, enabled_s = [], [], []
    for i in range(args.repeats * len(queries)):
        query = queries[i % len(queries)]
        if (i // len(queries)) % 2:
            on, off = _seconds(enabled, query), _seconds(disabled, query)
        else:
            off, on = _seconds(disabled, query), _seconds(enabled, query)
        ratios.append(on / max(1e-12, off))
        disabled_s.append(off)
        enabled_s.append(on)
    system.close()

    overhead = statistics.median(ratios) - 1.0
    print(f"{len(ratios)} interleaved pairs over {len(queries)} query frames")
    print(f"disabled (NULL_OBS) median {statistics.median(disabled_s) * 1000:8.2f} ms")
    print(f"enabled (metrics+traces)   {statistics.median(enabled_s) * 1000:8.2f} ms")
    print(f"overhead {overhead * 100:+.1f}% median per pair "
          f"(limit {args.max_overhead * 100:.0f}%)")
    if overhead > args.max_overhead:
        print("FAIL: observability overhead above limit")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
