"""System configuration.

Collects every tunable the paper mentions (key-frame threshold 800, the
range-finder thresholds 55/60, the feature set, fusion weights) in one
immutable object so experiments and ablations can vary them cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["SystemConfig", "TABLE1_FEATURES"]

#: The six individual features evaluated in Table 1 (plus "combined").
TABLE1_FEATURES: Tuple[str, ...] = ("glcm", "gabor", "tamura", "sch", "acc", "regions")


@dataclass(frozen=True)
class SystemConfig:
    """All tunables of the retrieval system.

    ``features`` are the extractors run at ingest; ``fusion_weights`` maps
    feature name -> weight for the combined ranking (missing features get
    equal weight 1.0).  ``keyframe_*`` configures §4.1, ``index_*`` §4.2.
    """

    features: Tuple[str, ...] = TABLE1_FEATURES
    fusion_weights: Mapping[str, float] = field(default_factory=dict)
    # §4.1 key-frame extraction
    keyframe_threshold: float = 800.0
    keyframe_base_size: int = 150  # 300 in the paper; 150 halves the cost
    # §4.2 range-finder index
    use_index: bool = True
    index_first_threshold: float = 55.0
    index_threshold: float = 60.0
    index_max_level: int = 3
    # IVF inverted-file candidate index (sublinear retrieval extension):
    # k-means coarse quantizer over the stored feature vectors; queries
    # only score the members of the ``ann_nprobe`` nearest of the
    # ``ann_cells`` cells, exactly re-ranked.  Composes with the range
    # index (candidates are intersected).
    ann: bool = False
    ann_cells: int = 16
    ann_nprobe: int = 3
    #: LRU query-result cache entries (0 disables caching); invalidated
    #: automatically on any store mutation
    query_cache_size: int = 256
    # mmap snapshot serving (repro.snapshot): "auto" opens a valid snapshot
    # and falls back to the SQL rebuild otherwise; "off" always rebuilds;
    # "require" refuses to start without a valid snapshot (read replicas)
    snapshot: str = "auto"
    #: snapshot file location (None = "<db path>.snap" for durable systems;
    #: in-memory systems skip snapshots unless a path is given)
    snapshot_path: Optional[str] = None
    # video-to-video similarity
    sequence_method: str = "dtw"  # 'dtw' or 'align'
    #: weight of the clip-level motion descriptor in video queries
    #: (0 = appearance only, the paper's system; 1 = equal to appearance)
    video_motion_weight: float = 0.0
    # execution layer (repro.runtime)
    #: ingest worker processes: 1 = serial, 0 = auto (REPRO_WORKERS / CPU count)
    workers: int = 1
    # observability (repro.obs): metrics registry + tracing + structured logs
    #: master gate; False swaps every instrumentation point for shared no-ops
    obs_enabled: bool = True
    #: ring-buffer capacity for recent request traces (``/traces/recent``)
    obs_trace_buffer: int = 64
    #: wall-time threshold (ms) above which a query is captured in the
    #: slow-query ring buffer (``GET /debug/slow``); 0 disables the log
    obs_slow_query_ms: float = 500.0
    #: slow-query ring-buffer capacity
    obs_slow_log_size: int = 64
    # resilience (repro.resilience): retry/backoff, breakers, deadlines, faults
    #: master gate; False swaps every policy hook for shared no-ops
    resilience: bool = True
    #: armed fault points, e.g. "extractor.gabor:every=1;db.execute:once"
    #: (None = the REPRO_FAULTS environment variable)
    fault_spec: Optional[str] = None
    #: sliding outcome window of the ANN / worker-pool circuit breakers
    breaker_window: int = 16
    #: seconds an open breaker waits before its half-open probe
    breaker_cooldown: float = 0.1
    #: per-request wall-time budget checked at stage boundaries
    #: (None = unbounded; the web layer maps overruns to HTTP 504)
    request_deadline: Optional[float] = None
    # sharded scatter-gather serving (repro.sharding): a coordinator
    # fans queries out to ``shards`` persistent snapshot-backed workers
    # and merges their raw distances into the single-store ranking
    #: shard count (1 = unsharded, the default single-store engine)
    shards: int = 1
    #: per-shard RSNAP1 snapshot paths (len == ``shards``); None leaves
    #: attachment to the caller (``repro.sharding.bootstrap``)
    shard_paths: Optional[Tuple[str, ...]] = None
    #: serve a partial ranking when a shard fails / its breaker is open
    #: (surfaced via ``SearchResults.degraded_shards``); False escalates
    shard_partial_ok: bool = True
    # serving front-end (repro.serving): a bounded queue feeds a dispatcher
    # that scores whatever queued while the previous batch ran in one call
    # (one scatter per shard when sharded)
    #: queued-request ceiling: requests arriving beyond it are shed with
    #: HTTP 429 + Retry-After instead of queueing without bound
    serving_queue_limit: int = 128
    #: queue depth at which admitted requests degrade (fewer features,
    #: lower ``ann_nprobe``) before any shedding starts; 0 disables the
    #: degrade rung of the ladder
    serving_degrade_depth: int = 64
    #: features a load-degraded request keeps (front of ``features``)
    serving_degrade_features: int = 2
    # admin authentication (None = open access)
    admin_password: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("at least one feature is required")
        from repro.features.base import all_extractors

        known = set(all_extractors())
        unknown = set(self.features) - known
        if unknown:
            raise ValueError(f"unknown features {sorted(unknown)}; known: {sorted(known)}")
        if self.keyframe_threshold < 0:
            raise ValueError("keyframe_threshold must be >= 0")
        if self.sequence_method not in ("dtw", "align"):
            raise ValueError("sequence_method must be 'dtw' or 'align'")
        if self.video_motion_weight < 0:
            raise ValueError("video_motion_weight must be non-negative")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = auto)")
        if self.ann_cells < 1:
            raise ValueError("ann_cells must be >= 1")
        if self.ann_nprobe < 1:
            raise ValueError("ann_nprobe must be >= 1")
        if self.ann_nprobe > self.ann_cells:
            raise ValueError("ann_nprobe must not exceed ann_cells")
        if self.query_cache_size < 0:
            raise ValueError("query_cache_size must be >= 0")
        if self.snapshot not in ("auto", "off", "require"):
            raise ValueError("snapshot must be 'auto', 'off', or 'require'")
        if self.obs_trace_buffer < 1:
            raise ValueError("obs_trace_buffer must be >= 1")
        if self.obs_slow_query_ms < 0:
            raise ValueError("obs_slow_query_ms must be >= 0 (0 = disabled)")
        if self.obs_slow_log_size < 1:
            raise ValueError("obs_slow_log_size must be >= 1")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be >= 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be non-negative")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError("request_deadline must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_paths is not None and len(self.shard_paths) != self.shards:
            raise ValueError(
                f"shard_paths holds {len(self.shard_paths)} paths "
                f"but shards={self.shards}"
            )
        if self.serving_queue_limit < 1:
            raise ValueError("serving_queue_limit must be >= 1")
        if self.serving_degrade_depth < 0:
            raise ValueError("serving_degrade_depth must be >= 0 (0 = disabled)")
        if self.serving_degrade_depth > self.serving_queue_limit:
            raise ValueError(
                "serving_degrade_depth must not exceed serving_queue_limit "
                "(degrade must kick in before shedding)"
            )
        if self.serving_degrade_features < 1:
            raise ValueError("serving_degrade_features must be >= 1")
        if self.shards > 1 and self.ann:
            raise ValueError(
                "ann is not supported with sharded serving (shards > 1): "
                "the coordinator merges exact raw distances"
            )
        if self.fault_spec is not None:
            from repro.resilience.faults import parse_fault_spec

            parse_fault_spec(self.fault_spec)  # fail fast on malformed specs

    def weight_of(self, feature: str) -> float:
        return float(self.fusion_weights.get(feature, 1.0))

    def weights_dict(self) -> Dict[str, float]:
        return {f: self.weight_of(f) for f in self.features}

    def with_(self, **changes) -> "SystemConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)
