#!/usr/bin/env python
"""Gate: instrumented-vs-disabled observability overhead on the query path.

Builds a small in-memory store, then times the same batched frame search
through two engines over identical data:

- ``disabled`` -- the default ``NULL_OBS`` engine (the ``obs_enabled=false``
  fast path: every instrumentation point is one no-op call on a shared
  null object)
- ``enabled``  -- a fully instrumented engine (metrics registry + tracer)

Fails when the enabled path's median latency exceeds the disabled path's
by more than ``--max-overhead`` (a generous bound sized for noisy CI
runners; ``obs.overhead_pct`` of ``benchmarks/e2e/run.py --trace 1``
tracks the precise trajectory).

Usage::

    PYTHONPATH=src python scripts/check_obs_overhead.py
    PYTHONPATH=src python scripts/check_obs_overhead.py --max-overhead 0.3
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Callable, List, Optional

from repro.core.config import SystemConfig
from repro.core.search import SearchEngine
from repro.core.system import VideoRetrievalSystem
from repro.obs import Obs
from repro.video.generator import make_corpus


def _median_ms(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-overhead", type=float, default=0.50,
                        help="allowed fractional enabled-vs-disabled slowdown "
                             "(default: %(default)s)")
    parser.add_argument("--videos", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=2012)
    args = parser.parse_args(argv)

    system = VideoRetrievalSystem.in_memory(SystemConfig())
    for video in make_corpus(videos_per_category=1, seed=args.seed,
                             width=64, height=48, n_shots=6,
                             frames_per_shot=3)[: args.videos]:
        system.admin.add_video(video)
    query_config = system.config.with_(query_cache_size=0)
    disabled_engine = SearchEngine(query_config, system._store, system._index)
    enabled_engine = SearchEngine(query_config, system._store, system._index,
                                  obs=Obs())
    query = system.any_key_frame()

    def search(engine: SearchEngine) -> Callable[[], object]:
        return lambda: engine.query_frame(query, top_k=10, use_index=False)

    # interleave a warmup pass so neither engine pays first-run costs
    search(disabled_engine)()
    search(enabled_engine)()
    disabled_ms = _median_ms(search(disabled_engine), args.repeats)
    enabled_ms = _median_ms(search(enabled_engine), args.repeats)
    system.close()

    overhead = enabled_ms / max(1e-9, disabled_ms) - 1.0
    print(f"disabled (NULL_OBS) median {disabled_ms:8.2f} ms")
    print(f"enabled (metrics+traces)   {enabled_ms:8.2f} ms")
    print(f"overhead {overhead * 100:+.1f}% (limit {args.max_overhead * 100:.0f}%)")
    if overhead > args.max_overhead:
        print("FAIL: observability overhead above limit")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
