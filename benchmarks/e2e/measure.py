"""Metric names, summary statistics, and the facts recorded with every run."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from env import REPO_ROOT

FEATURES = ("glcm", "gabor", "tamura", "sch", "acc", "regions")

#: name -> unit.  The order is the order of BENCHMARK.json ``end_to_end``.
#: Every workload reports every one of them (the driver's contract); the
#: README says where each is measured on each workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cold_start_ms": "ms",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "clip_query_p50_ms": "ms",
    "ingest_keyframes_per_s": "1/s",
    "post_write_query_ms": "ms",
    "precision_at_20": "ratio",
    "recall_at_10": "ratio",
    "peak_rss_mb": "MB",
    "snapshot_bytes_per_keyframe": "B",
}

#: end-to-end by the issue's definition but outside BENCHMARK.json: zero on
#: a healthy run.  Printed and written to ``out/``; it is the driver's
#: failed/attempted.  (``max_rate_under_slo_qps`` exists on ``serve_1k``
#: only and its ladder is too long for the timed run: the traced run climbs
#: it and reports ``serving.max_rate_under_slo_qps``.)
REPORT_ONLY: Dict[str, str] = {"failed_ratio": "ratio"}

#: name -> unit.  A layer a workload never enters reports 0: no work done.
PER_LAYER: Dict[str, str] = {
    **{f"features.extract_ms.{f}": "ms" for f in FEATURES},
    **{f"features.distance_ms.{f}": "ms" for f in FEATURES},
    "features.distance_mb_scanned": "MB",
    "indexing.range.prune_ms": "ms",
    "indexing.range.candidate_ratio": "ratio",
    "indexing.ann.probe_ms": "ms",
    "indexing.ann.candidate_ratio": "ratio",
    "indexing.ann.build_s": "s",
    "core.store.gather_ms": "ms",
    "core.store.prepared_build_ms": "ms",
    "core.search.frame_ms": "ms",
    "core.search.vectors_ms": "ms",
    "core.search.self_ms": "ms",
    "core.search.unattributed_ratio": "ratio",
    "core.cache.hit_ms": "ms",
    "core.cache.hit_ratio.reported": "ratio",
    "core.ingest.add_video_ms": "ms",
    "core.ingest.other_ms": "ms",
    "core.snapshots.checkpoint_s": "s",
    "similarity.fusion_ms": "ms",
    "similarity.dp_ms": "ms",
    "video.keyframes.extract_ms": "ms",
    "db.rebuild_s": "s",
    "snapshot.write_s": "s",
    "snapshot.open_ms": "ms",
    "sharding.scatter_gather_ms": "ms",
    "sharding.worker_score_ms": "ms",
    "sharding.overhead_ms": "ms",
    "sharding.merge_ms.reported": "ms",
    "sharding.reply_mb": "MB",
    "sharding.speedup_vs_solo": "ratio",
    "runtime.pool.roundtrip_ms": "ms",
    "web.parse_ms": "ms",
    "web.serialize_ms": "ms",
    "serving.http_overhead_ms": "ms",
    "serving.batch_size_mean.reported": "count",
    "serving.queue_wait_ms.reported": "ms",
    "serving.shed_total.reported": "count",
    "serving.degraded_total.reported": "count",
    "serving.generator_lateness_ms": "ms",
    "serving.max_rate_under_slo_qps": "1/s",
    "obs.overhead_pct": "%",
    "bench.trace_overhead_pct": "%",
}


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def fastest_round(times_by_round: Sequence[Sequence[float]]) -> List[float]:
    """Per operation, the fastest of its rounds: machine noise out, the
    input-dependent spread across operations kept (see ``plan.py``)."""
    return np.min(np.asarray(times_by_round, dtype=np.float64), axis=0).tolist()


def best_rate(counts_and_seconds: Iterable[Sequence[float]]) -> float:
    """Operations per second of the fastest round: raw wall-clock, of the
    round the machine disturbed least."""
    return max(n / s for n, s in counts_and_seconds)


#: consecutive blocks a measured region is cut into
BLOCKS = 5


def over_blocks(samples: Sequence[float], stat: Callable[[Sequence[float]], float]) -> float:
    """The median, over :data:`BLOCKS` consecutive blocks, of ``stat(block)``.

    For a region that runs once (a ladder rung): the sandbox stalls for a
    few hundred ms about once a minute, and a stall inside a 3 s rung owns
    its p95; cut into blocks it spoils one block, and the median of the
    blocks does not see it.  Samples must be in time order.
    """
    samples = list(samples)
    size = max(1, len(samples) // BLOCKS)
    blocks = [samples[i:i + size] for i in range(0, size * BLOCKS, size)]
    blocks[-1].extend(samples[size * BLOCKS:])
    return median([stat(block) for block in blocks if block])


def p95(samples: Sequence[float]) -> float:
    return percentile(samples, 95)


def mean_precision(categories_of_hits: Iterable[Sequence[Optional[str]]],
                   wanted: Iterable[str]) -> float:
    """Mean P@20 (``repro.eval.metrics``: short lists count as padded with
    misses) of the queries' hits against the queries' categories."""
    from repro.eval.metrics import precision_at_k

    scores = [
        precision_at_k([c == want for c in hits], 20)
        for hits, want in zip(categories_of_hits, wanted)
    ]
    return float(np.mean(scores)) if scores else 0.0


def overlap_at(k: int, got_ids: Sequence[int], want_ids: Sequence[int]) -> float:
    want = set(want_ids[:k])
    return len(set(got_ids[:k]) & want) / len(want) if want else 1.0


# -- memory ---------------------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """The process's high-water RSS (``VmHWM``) in MB; 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid or os.getpid()}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(parent: Optional[int] = None) -> List[int]:
    """Live direct children of ``parent`` (shard workers are forked, and
    ``repro`` does not hand out their pids)."""
    parent = parent or os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and parens
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == parent:
            found.append(int(entry))
    return found


# -- run facts ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def run_facts(seed: int) -> Dict[str, object]:
    """Who measured: recorded at start; :func:`close_facts` adds the end."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "load_1min_start": round(load, 2),
        # someone else already holds a core: the timings are suspect
        "noisy": load > nproc - 1,
    }


def close_facts(facts: Dict[str, object]) -> None:
    facts["load_1min_end"] = round(os.getloadavg()[0], 2)
