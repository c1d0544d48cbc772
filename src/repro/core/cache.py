"""Query-result cache.

Retrieval workloads repeat themselves: the same query frame is re-issued
while a user tweaks ``top_k`` or the feature set.  This LRU keys results on a
content digest of the query (pixel bytes or feature-vector bytes, plus
every parameter that changes the ranking) **and the store's mutation
generation**: any ingest, delete, or rename bumps the generation and the
whole cache drops on the next access, so a hit can never serve stale
results.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

import numpy as np

from repro.obs import NULL_OBS, Obs

__all__ = ["QueryCache", "digest_array", "digest_vectors"]


def digest_array(array: np.ndarray) -> str:
    """Content digest of an array (dtype- and shape-sensitive)."""
    a = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def digest_vectors(query_vectors: Dict[str, Any]) -> str:
    """Content digest of a ``name -> FeatureVector`` mapping (order-free)."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(query_vectors):
        values = np.ascontiguousarray(
            np.asarray(query_vectors[name].values, dtype=np.float64)
        )
        h.update(name.encode())
        h.update(values.tobytes())
    return h.hexdigest()


class QueryCache:
    """A small LRU of query results, invalidated by store generation.

    ``get``/``put`` take the current generation; when it differs from the
    one the cached entries were stored under, everything is dropped first.
    ``max_entries <= 0`` disables the cache (every ``get`` misses, ``put``
    is a no-op), so callers don't need a separate code path.
    """

    def __init__(self, max_entries: int = 256, obs: Obs = NULL_OBS):
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._generation: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self._m_requests = obs.counter(
            "repro_cache_requests_total",
            "Query-result cache lookups by outcome.",
            labelnames=("result",),
        )
        self._m_hit = self._m_requests.labels(result="hit")
        self._m_miss = self._m_requests.labels(result="miss")
        self._m_invalidations = obs.counter(
            "repro_cache_invalidations_total",
            "Whole-cache drops caused by store mutations.",
        )
        self._m_evictions = obs.counter(
            "repro_cache_evictions_total", "LRU evictions at capacity."
        )
        self._m_entries = obs.gauge(
            "repro_cache_entries", "Entries currently cached."
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def _check_generation(self, generation: int) -> None:
        if self._generation != generation:
            if self._entries:
                self.invalidations += 1
                self._m_invalidations.inc()
                self._entries.clear()
                self._m_entries.set(0)
            self._generation = generation

    def get(self, key: Hashable, generation: int) -> Optional[Any]:
        if not self.enabled:
            self.misses += 1
            self._m_miss.inc()
            return None
        self._check_generation(generation)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._m_miss.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._m_hit.inc()
        return entry

    def put(self, key: Hashable, generation: int, value: Any) -> None:
        if not self.enabled:
            return
        self._check_generation(generation)
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._m_evictions.inc()
        self._m_entries.set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._generation = None
        self._m_entries.set(0)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
