"""One query pipeline: a solo query is a batch of one.

``query_frame`` / ``query_with_vectors`` and ``query_batch([request])``
run the same prepare -> score -> finish stages, on the single-store
engine and on the scatter-gather coordinator alike: the same hits to the
bit, the same explain payload, the same query-cache traffic (either entry
point hits the entry the other one wrote), the same child spans -- and a
request that fails raises from the solo call what the batch reports in
its slot, without touching a batchmate.
"""

from __future__ import annotations

import pytest

from repro.core.search import QueryRequest, SearchEngine, _extract_query_features
from repro.obs import Obs
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    ResiliencePolicies,
    deadline_scope,
)
from repro.sharding import ShardedSearchEngine, read_manifest, split_store

FEATURES = ["sch", "glcm", "gabor"]
TOP_K = 7


@pytest.fixture(scope="module")
def shard_paths3(ingested_system, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline-shards3")
    split_store(ingested_system.feature_store, str(out), 3)
    return read_manifest(str(out))[1]


@pytest.fixture(scope="module", params=["solo", "sharded"])
def engine_kind(request):
    return request.param


@pytest.fixture(scope="module", params=[64, 0], ids=["cache-on", "cache-off"])
def engine(request, engine_kind, ingested_system, shard_paths3):
    """One traced engine per (kind, cache); tests use distinct queries."""
    config = ingested_system.config.with_(query_cache_size=request.param)
    if engine_kind == "solo":
        built = SearchEngine(
            config, ingested_system.feature_store, ingested_system._index, obs=Obs()
        )
    else:
        built = ShardedSearchEngine(config, shard_paths3, obs=Obs())
    yield built
    built.close()


def _images(ingested_system):
    store = ingested_system.feature_store
    ids = store.frame_ids()
    return [ingested_system.get_key_frame(fid) for fid in (ids[1], ids[-2])]


def _solo_and_request(kind, ingested_system, which):
    """``(call_solo, request)`` for the ``which``-th distinct query of a kind."""
    image = _images(ingested_system)[which]
    if kind == "frame":
        return (
            lambda e: e.query_frame(image, features=FEATURES, top_k=TOP_K),
            QueryRequest(image=image, features=FEATURES, top_k=TOP_K),
        )
    vectors = _extract_query_features(
        image, extractors=ingested_system.engine.extractors, names=FEATURES
    )
    subset = ingested_system.feature_store.frame_ids()[which::2]
    return (
        lambda e: e.query_with_vectors(vectors, top_k=TOP_K, candidate_ids=subset),
        QueryRequest(query_vectors=vectors, top_k=TOP_K, candidate_ids=subset),
    )


def _observed(engine, call):
    """Run ``call``; its result, cache-counter deltas and root-span children."""
    before = engine.cache_stats()
    results = call()
    after = engine.cache_stats()
    (root,) = engine._obs.recent_traces(1)
    return {
        "hits": [(h.frame_id, h.distance, sorted(h.per_feature.items())) for h in results],
        "n_candidates": results.n_candidates,
        "explain": _untimed(results.explain),
        "cache": {k: after[k] - before[k] for k in ("hits", "misses", "entries")},
        "root": root["name"],
        "children": [c["name"] for c in root.get("children", [])],
    }


def _untimed(explain):
    explain = {k: v for k, v in explain.items() if k not in ("timings_ms", "total_ms")}
    if "sharded" in explain:
        sharded = dict(explain["sharded"], merge_ms=None)
        sharded["per_shard"] = [
            dict(meta, wall_ms=None) for meta in sharded.get("per_shard", [])
        ]
        explain["sharded"] = sharded
    return explain


@pytest.mark.parametrize("kind", ["frame", "vectors"])
def test_solo_query_is_a_batch_of_one(engine, ingested_system, kind):
    cached = engine.config.query_cache_size > 0
    solo_a, request_a = _solo_and_request(kind, ingested_system, 0)
    solo_b, request_b = _solo_and_request(kind, ingested_system, 1)
    # query A: solo first, then the batch; query B: the other way round
    solo_first = _observed(engine, lambda: solo_a(engine))
    batch_second = _observed(engine, lambda: engine.query_batch([request_a])[0])
    batch_first = _observed(engine, lambda: engine.query_batch([request_b])[0])
    solo_second = _observed(engine, lambda: solo_b(engine))

    root = "search.query_frame" if kind == "frame" else "search.query_vectors"
    assert solo_first["root"] == solo_second["root"] == root
    assert batch_first["root"] == batch_second["root"] == "search.query_batch"
    for first, second in ((solo_first, batch_second), (batch_first, solo_second)):
        assert first["hits"] == second["hits"]
        assert first["n_candidates"] == second["n_candidates"]
        assert len(first["hits"]) == min(TOP_K, first["n_candidates"]) > 0
        assert first["explain"].pop("cache") == ("miss" if cached else "off")
        assert second["explain"].pop("cache") == ("hit" if cached else "off")
        assert first["explain"] == second["explain"]
    # the same cache traffic and the same stages whichever entry point ran
    assert solo_first["cache"] == batch_first["cache"]
    assert solo_second["cache"] == batch_second["cache"]
    assert solo_first["children"] == batch_first["children"]
    assert solo_second["children"] == batch_second["children"]
    if kind == "frame":
        assert solo_first["children"][:2] == ["search.index.prune", "search.extract"]
    assert ("search.scatter" in solo_first["children"]) == hasattr(engine, "n_shards")
    if cached:
        assert solo_first["cache"]["hits"] == 0 and solo_first["cache"]["misses"] >= 1
        assert solo_second["cache"] == {"hits": 1, "misses": 0, "entries": 0}
        assert solo_second["children"] == []
    else:
        assert solo_first["cache"] == solo_second["cache"]
        assert solo_first["children"] == solo_second["children"]


@pytest.mark.parametrize(
    "bad, error",
    [
        (lambda image, vectors: QueryRequest(image=image, features=["nope"]), ValueError),
        (
            lambda image, vectors: QueryRequest(
                query_vectors=vectors, candidate_ids=[10**9]
            ),
            KeyError,
        ),
    ],
    ids=["unknown-feature", "unknown-candidate-id"],
)
def test_failing_request_raises_solo_and_stays_in_its_slot(
    engine, ingested_system, bad, error
):
    image = _images(ingested_system)[0]
    vectors = _extract_query_features(
        image, extractors=ingested_system.engine.extractors, names=FEATURES
    )
    poisoned = bad(image, vectors)
    good = QueryRequest(image=image, features=FEATURES, top_k=3)
    failed, answered = engine.query_batch([poisoned, good])
    assert type(failed) is error
    assert answered.frame_ids() == engine.query_frame(
        image, features=FEATURES, top_k=3
    ).frame_ids()
    with pytest.raises(error):
        if poisoned.image is not None:
            engine.query_frame(poisoned.image, features=poisoned.features)
        else:
            engine.query_with_vectors(
                poisoned.query_vectors, candidate_ids=poisoned.candidate_ids
            )


class TestQueryRequestValidation:
    @pytest.mark.parametrize(
        "field, value", [("candidate_ids", [1]), ("weights", {"sch": 1.0})]
    )
    def test_frame_request_rejects_vector_fields(self, gradient_image, field, value):
        with pytest.raises(ValueError, match=field):
            QueryRequest(image=gradient_image, **{field: value})

    @pytest.mark.parametrize("field, value", [("features", ["sch"]), ("use_index", False)])
    def test_vector_request_rejects_frame_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            QueryRequest(query_vectors={}, **{field: value})


def test_one_deadline_budget_spans_all_stages(ingested_system, monkeypatch):
    """A request entering ``query_batch`` without a deadline gets ONE
    configured budget: time lost in prepare expires it before scoring
    instead of being forgiven by a fresh budget per stage."""
    config = ingested_system.config.with_(request_deadline=0.5, query_cache_size=0)
    policies = ResiliencePolicies.from_config(config)
    assert policies.new_deadline().budget == 0.5
    with deadline_scope(9.0):  # an ambient deadline keeps winning
        assert policies.new_deadline() is None
    engine = SearchEngine(
        config, ingested_system.feature_store, ingested_system._index, policies=policies
    )
    clock = {"now": 0.0, "minted": 0}

    def new_deadline():
        clock["minted"] += 1
        return Deadline(policies.request_deadline, clock=lambda: clock["now"])

    monkeypatch.setattr(policies, "new_deadline", new_deadline)
    _solo, request = _solo_and_request("vectors", ingested_system, 0)
    assert len(engine.query_batch([request])[0]) == TOP_K
    assert clock["minted"] == 1

    matrix_rows = engine.store.matrix_rows

    def slow_matrix_rows(frame_ids):  # the tail of the prepare stage
        clock["now"] += 0.6
        return matrix_rows(frame_ids)

    monkeypatch.setattr(engine.store, "matrix_rows", slow_matrix_rows)
    (outcome,) = engine.query_batch([request])
    assert isinstance(outcome, DeadlineExceeded)
    assert outcome.stage == "search.batch_score"
    with pytest.raises(DeadlineExceeded):
        engine.query_with_vectors(
            request.query_vectors, top_k=TOP_K, candidate_ids=request.candidate_ids
        )
    engine.close()
