"""Property tests: the merge equivalence holds for *any* topology.

Hypothesis drives shard counts 1..8 and random candidate subsets over
the session corpus; every draw must reproduce the single-store ranking
byte-for-byte, and every simulated shard loss must reproduce the
complement-corpus ranking.  Examples are deliberately few -- each one
splits the corpus and boots real worker pools -- but each example checks
full-ranking equality, not just the head.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import ResiliencePolicies
from repro.sharding import (
    ShardedSearchEngine,
    read_manifest,
    shard_of,
    split_store,
)

_VECTOR_CACHE: dict = {}


def _vectors(ingested_system):
    if "v" not in _VECTOR_CACHE:
        frame = ingested_system.any_key_frame()
        extractors = ingested_system.engine.extractors
        _VECTOR_CACHE["v"] = {n: extractors[n].extract(frame) for n in ("sch", "glcm")}
    return _VECTOR_CACHE["v"]


def _key(results):
    return [(h.frame_id, h.distance, sorted(h.per_feature.items())) for h in results]


@settings(max_examples=6, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_any_shard_count_and_subset_reproduces_ranking(
    ingested_system, n_shards, seed
):
    vectors = _vectors(ingested_system)
    store = ingested_system.feature_store
    rng = np.random.default_rng(seed)
    ids = np.asarray(store.frame_ids())
    subset = [int(fid) for fid in rng.permutation(ids)[: max(1, ids.size // 2)]]
    base = ingested_system.engine.query_with_vectors(
        vectors, top_k=len(subset), candidate_ids=subset
    )
    with tempfile.TemporaryDirectory() as out:
        split_store(store, out, n_shards)
        _, paths = read_manifest(out)
        engine = ShardedSearchEngine(ingested_system.config, paths)
        try:
            sharded = engine.query_with_vectors(
                vectors, top_k=len(subset), candidate_ids=subset
            )
        finally:
            engine.close()
    assert _key(sharded) == _key(base)


@settings(max_examples=4, deadline=None)
@given(
    n_shards=st.integers(min_value=2, max_value=6),
    nth=st.integers(min_value=1, max_value=6),
)
def test_any_lost_shard_reproduces_complement_ranking(
    ingested_system, n_shards, nth
):
    """Killing the nth dispatched shard == querying the complement corpus."""
    vectors = _vectors(ingested_system)
    store = ingested_system.feature_store
    occupied = sorted(
        {shard_of(store.get(fid).video_id, n_shards) for fid in store.frame_ids()}
    )
    # the fault counter indexes *dispatched* shards (empty partitions are
    # skipped), so ``once`` kills the first occupied shard and
    # ``every=k`` with k in (D/2, D] fires exactly once, on the kth
    n_occupied = len(occupied)
    if nth % 2 == 0 or n_occupied == 1:
        spec, failed = "shard.query:once", occupied[0]
    else:
        k = n_occupied // 2 + 1 + (nth % (n_occupied - n_occupied // 2))
        spec, failed = f"shard.query:every={k}", occupied[k - 1]
    with tempfile.TemporaryDirectory() as out:
        split_store(store, out, n_shards)
        _, paths = read_manifest(out)
        engine = ShardedSearchEngine(
            ingested_system.config, paths, policies=ResiliencePolicies(fault_spec=spec)
        )
        try:
            results = engine.query_with_vectors(vectors, top_k=200)
        finally:
            engine.close()
    assert results.degraded_shards == [failed]
    survivors = [
        fid
        for fid in store.frame_ids()
        if shard_of(store.get(fid).video_id, n_shards) != failed
    ]
    reference = ingested_system.engine.query_with_vectors(
        vectors, top_k=200, candidate_ids=survivors
    )
    assert _key(results) == _key(reference)
