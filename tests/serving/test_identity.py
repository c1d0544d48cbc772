"""Batched rankings are byte-identical to serial execution.

The central serving invariant: ``query_batch`` never changes a single
bit of any ranking -- batching buys amortised overhead (and one scatter
per shard when sharded), not approximate answers.  Hypothesis drives
mixed frame/vector batches with varying top_k, feature subsets, and
candidate subsets over the session corpus; every outcome must equal the
serial result exactly (frame ids, fused distances, and raw per-feature
distances).  One test runs the comparison through the real MicroBatcher
on an event loop, one through a 3-shard scatter-gather engine.
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import QueryRequest
from repro.serving import MicroBatcher
from repro.sharding import ShardedSearchEngine, read_manifest, split_store

_FEATURES = ["sch", "glcm", "gabor"]
_CACHE: dict = {}


def _vectors(system, names):
    key = tuple(names)
    if key not in _CACHE:
        frame = system.any_key_frame()
        _CACHE[key] = {n: system.engine.extractors[n].extract(frame) for n in names}
    return _CACHE[key]


def _key(results):
    return [(h.frame_id, h.distance, sorted(h.per_feature.items())) for h in results]


def _draw_requests(system, rng, n_requests):
    """Mixed frame/vector requests over the session corpus."""
    ids = np.asarray(system.feature_store.frame_ids())
    requests, serial = [], []
    for i in range(n_requests):
        top_k = int(rng.integers(1, 30))
        names = list(rng.permutation(_FEATURES)[: int(rng.integers(1, 4))])
        if i % 2 == 0:
            image = system.any_key_frame()
            requests.append(QueryRequest(image=image, features=names, top_k=top_k))
            serial.append(lambda im=image, ns=names, k=top_k: system.engine.query_frame(
                im, features=ns, top_k=k
            ))
        else:
            subset = [int(f) for f in rng.permutation(ids)[: max(1, ids.size // 2)]]
            vectors = _vectors(system, sorted(names))
            requests.append(
                QueryRequest(query_vectors=vectors, top_k=top_k, candidate_ids=subset)
            )
            serial.append(
                lambda v=vectors, k=top_k, s=subset:
                system.engine.query_with_vectors(v, top_k=k, candidate_ids=s)
            )
    return requests, serial


@settings(max_examples=8, deadline=None)
@given(
    n_requests=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_query_batch_matches_serial_byte_for_byte(ingested_system, n_requests, seed):
    rng = np.random.default_rng(seed)
    requests, serial = _draw_requests(ingested_system, rng, n_requests)
    batched = ingested_system.engine.query_batch(requests)
    for outcome, make_serial in zip(batched, serial):
        reference = make_serial()
        assert not isinstance(outcome, BaseException)
        assert _key(outcome) == _key(reference)
        assert outcome.n_candidates == reference.n_candidates


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_sharded_query_batch_matches_serial(ingested_system, seed):
    rng = np.random.default_rng(seed)
    store = ingested_system.feature_store
    ids = np.asarray(store.frame_ids())
    vectors = _vectors(ingested_system, ["glcm", "sch"])
    requests = []
    for _ in range(4):
        subset = [int(f) for f in rng.permutation(ids)[: max(1, ids.size // 2)]]
        requests.append(
            QueryRequest(query_vectors=vectors, top_k=len(subset), candidate_ids=subset)
        )
    with tempfile.TemporaryDirectory() as out:
        split_store(store, out, 3)
        _, paths = read_manifest(out)
        engine = ShardedSearchEngine(ingested_system.config, paths)
        try:
            batched = engine.query_batch(requests)
            serial = [
                engine.query_with_vectors(
                    r.query_vectors, top_k=r.top_k, candidate_ids=r.candidate_ids
                )
                for r in requests
            ]
        finally:
            engine.close()
    for outcome, reference in zip(batched, serial):
        assert not isinstance(outcome, BaseException)
        assert _key(outcome) == _key(reference)


def test_micro_batched_concurrent_requests_match_serial(ingested_system):
    """End to end through the real batcher: one event loop, 8 concurrent
    submissions coalescing into shared batches, all byte-identical."""
    rng = np.random.default_rng(7)
    requests, serial = _draw_requests(ingested_system, rng, 8)
    batcher = MicroBatcher(ingested_system.engine.query_batch)

    async def run():
        await batcher.start()
        try:
            return await asyncio.gather(
                *(batcher.submit(r) for r in requests), return_exceptions=True
            )
        finally:
            await batcher.stop()

    outcomes = asyncio.run(run())
    for outcome, make_serial in zip(outcomes, serial):
        assert not isinstance(outcome, BaseException)
        assert _key(outcome) == _key(make_serial())
