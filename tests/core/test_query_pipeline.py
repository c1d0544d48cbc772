"""One query pipeline: a solo query is a batch of one.

``query_frame`` / ``query_with_vectors`` / ``query_video`` and
``query_batch([request])`` run the same prepare -> score -> finish
stages, on the single-store engine and on the scatter-gather coordinator
alike: the same hits to the bit, the same explain payload, the same
query-cache traffic (either entry point hits the entry the other one
wrote; clips are not cached), the same child spans -- and a request that
fails raises from the solo call what the batch reports in its slot,
without touching a batchmate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.search import QueryRequest, SearchEngine
from repro.obs import Obs
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    ResiliencePolicies,
    deadline_scope,
)
from repro.sharding import ShardedSearchEngine, read_manifest, split_store
from tests.core.clip_reference import ranking_of, reference_clip_ranking, relaid_store

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


def _clip(ingested_system, which):
    """A few frames across a stored video's shot cut (several key frames)."""
    return ingested_system.get_video_frames(2 + which)[2:8]


def _solo_and_request(kind, ingested_system, which):
    """``(call_solo, request)`` for the ``which``-th distinct query of a kind."""
    if kind == "video":
        clip = _clip(ingested_system, which)
        return (
            lambda e: e.query_video(clip, features=FEATURES, top_k=TOP_K),
            QueryRequest(clip=clip, features=FEATURES, top_k=TOP_K),
        )
    image = _images(ingested_system)[which]
    if kind == "frame":
        return (
            lambda e: e.query_frame(image, features=FEATURES, top_k=TOP_K),
            QueryRequest(image=image, features=FEATURES, top_k=TOP_K),
        )
    extractors = ingested_system.engine.extractors
    vectors = {name: extractors[name].extract(image) for name in FEATURES}
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
    if isinstance(results, list):  # a clip's VideoMatch list: no explain
        answer = {
            "hits": [(m.video_id, m.video_name, m.category, m.distance) for m in results],
            "n_candidates": len(engine.store.video_ids()),
            "explain": {"cache": None},
        }
    else:
        answer = {
            "hits": [
                (h.frame_id, h.distance, sorted(h.per_feature.items())) for h in results
            ],
            "n_candidates": results.n_candidates,
            "explain": _untimed(results.explain),
        }
    return {
        **answer,
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


CLIP_STAGES = [
    "search.video.keyframes", "search.video.extract",
    "search.video.distance", "search.video.dp",
]


@pytest.mark.parametrize("kind", ["frame", "vectors", "video"])
def test_solo_query_is_a_batch_of_one(engine, ingested_system, kind):
    cached = engine.config.query_cache_size > 0 and kind != "video"
    solo_a, request_a = _solo_and_request(kind, ingested_system, 0)
    solo_b, request_b = _solo_and_request(kind, ingested_system, 1)
    # query A: solo first, then the batch; query B: the other way round
    solo_first = _observed(engine, lambda: solo_a(engine))
    batch_second = _observed(engine, lambda: engine.query_batch([request_a])[0])
    batch_first = _observed(engine, lambda: engine.query_batch([request_b])[0])
    solo_second = _observed(engine, lambda: solo_b(engine))

    root = {
        "frame": "search.query_frame",
        "vectors": "search.query_vectors",
        "video": "search.query_video",
    }[kind]
    assert solo_first["root"] == solo_second["root"] == root
    assert batch_first["root"] == batch_second["root"] == "search.query_batch"
    for first, second in ((solo_first, batch_second), (batch_first, solo_second)):
        assert first["hits"] == second["hits"]
        assert first["n_candidates"] == second["n_candidates"]
        assert len(first["hits"]) == min(TOP_K, first["n_candidates"]) > 0
        if kind != "video":
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
    if kind == "video":  # the scatter nests under the clip's distance stage
        assert solo_first["children"] == CLIP_STAGES
        assert solo_first["cache"] == {"hits": 0, "misses": 0, "entries": 0}
    else:
        assert ("search.scatter" in solo_first["children"]) == hasattr(engine, "n_shards")
    if cached:
        assert solo_first["cache"]["hits"] == 0 and solo_first["cache"]["misses"] >= 1
        assert solo_second["cache"] == {"hits": 1, "misses": 0, "entries": 0}
        assert solo_second["children"] == []
    else:
        assert solo_first["cache"] == solo_second["cache"]
        assert solo_first["children"] == solo_second["children"]


def test_mixed_batch_keeps_every_outcome_in_its_slot(engine, ingested_system):
    """``[frame, clip, vectors, poisoned clip]``: each slot holds what the
    request returns (or raises) when it runs on its own."""
    solos, requests = zip(
        *(_solo_and_request(kind, ingested_system, 0) for kind in ("frame", "video", "vectors"))
    )
    poisoned = QueryRequest(clip=_clip(ingested_system, 1), features=["nope"])
    frame, clip, vectors, failed = engine.query_batch([*requests, poisoned])
    want_frame, want_clip, want_vectors = (solo(engine) for solo in solos)
    assert [(h.frame_id, h.distance) for h in frame] == [
        (h.frame_id, h.distance) for h in want_frame
    ]
    assert ranking_of(clip) == ranking_of(want_clip) and len(clip) == TOP_K
    assert [(h.frame_id, h.distance) for h in vectors] == [
        (h.frame_id, h.distance) for h in want_vectors
    ]
    assert type(failed) is ValueError
    with pytest.raises(ValueError, match="nope"):
        engine.query_video(poisoned.clip, features=poisoned.features)


def test_clip_ranks_like_the_reference_on_either_engine(engine, ingested_system):
    """Session corpus: the batch slot equals the step-by-step reference,
    and a feature subset ranks as the system's own unsharded engine does."""
    clip = _clip(ingested_system, 0)
    want = reference_clip_ranking(engine, clip)
    (got,) = engine.query_batch([QueryRequest(clip=clip, top_k=len(want))])
    assert ranking_of(got) == want and len(want) == len(engine.store.video_ids())
    assert ranking_of(engine.query_video(clip, features=["acc"], top_k=4)) == ranking_of(
        ingested_system.search_by_video(clip, features=["acc"], top_k=4)
    )


@pytest.mark.parametrize("method", ["dtw", "align"])
@pytest.mark.parametrize("sharded", [False, True], ids=["base", "3-shard"])
def test_clip_over_gathered_rows_equals_the_reference(
    ingested_system, small_corpus, tmp_path, sharded, method
):
    """Frame ids dealt round-robin across videos: video-major order is
    not stack order, so every clip plan carries ``rows``."""
    source = ingested_system.feature_store
    lengths = (3, 1, 5, 2, 4)
    records = [source.get(fid) for fid in source.frame_ids()[: sum(lengths)]]
    store = relaid_store(records, lengths, interleave=True)
    assert store.video_spans()[0] is not None
    config = replace(ingested_system.config, sequence_method=method)
    if sharded:
        split_store(store, str(tmp_path), 3)
        engine = ShardedSearchEngine(config, read_manifest(str(tmp_path))[1])
    else:
        engine = SearchEngine(config, store, ingested_system._index)
    try:
        clip = small_corpus[3].frames
        want = reference_clip_ranking(engine, clip)
        assert len(want) == len(lengths)
        (got,) = engine.query_batch([QueryRequest(clip=clip, top_k=len(want))])
        assert ranking_of(got) == want
    finally:
        engine.close()


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
    extractors = ingested_system.engine.extractors
    vectors = {name: extractors[name].extract(image) for name in FEATURES}
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("candidate_ids", [1]), ("weights", {"sch": 1.0}),
            ("use_index", False), ("nprobe", 2),
        ],
    )
    def test_clip_request_rejects_frame_and_vector_fields(
        self, gradient_image, field, value
    ):
        with pytest.raises(ValueError, match=field):
            QueryRequest(clip=[gradient_image], **{field: value})

    def test_exactly_one_query_field(self, gradient_image):
        assert QueryRequest(clip=[gradient_image], features=["sch"]).kind == "video"
        with pytest.raises(ValueError, match="exactly one"):
            QueryRequest()
        with pytest.raises(ValueError, match="exactly one"):
            QueryRequest(image=gradient_image, clip=[gradient_image])
        with pytest.raises(ValueError, match="no frames"):
            QueryRequest(clip=[])


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


def test_one_deadline_budget_spans_a_clip(ingested_system, monkeypatch):
    """A clip gets the one minted budget too: time lost in its prepare
    expires it at the shared pass, and only it -- the batchmates on
    either side (their own, roomier budgets) are answered."""
    config = ingested_system.config.with_(request_deadline=0.5, query_cache_size=0)
    policies = ResiliencePolicies.from_config(config)
    engine = SearchEngine(
        config, ingested_system.feature_store, ingested_system._index, policies=policies
    )
    clock = {"now": 0.0, "minted": 0}

    def tick():
        return clock["now"]

    def new_deadline():
        clock["minted"] += 1
        return Deadline(policies.request_deadline, clock=tick)

    monkeypatch.setattr(policies, "new_deadline", new_deadline)
    # one key frame, so one plan: nothing checks the clock after it
    clip = QueryRequest(clip=_clip(ingested_system, 0)[:1], features=FEATURES, top_k=TOP_K)
    (matches,) = engine.query_batch([clip])
    assert len(matches) == TOP_K and clock["minted"] == 1

    plan_vectors = engine._plan_vectors

    def slow_plan_vectors(*args, exact=False, **kwargs):
        plan = plan_vectors(*args, exact=exact, **kwargs)
        if exact:  # the tail of the clip's prepare stage
            clock["now"] += 0.6
        return plan

    monkeypatch.setattr(engine, "_plan_vectors", slow_plan_vectors)
    mates = [
        replace(
            _solo_and_request(kind, ingested_system, 0)[1],
            deadline=Deadline(9.0, clock=tick),
        )
        for kind in ("frame", "vectors")
    ]
    before, expired, after = engine.query_batch([mates[0], clip, mates[1]])
    assert isinstance(expired, DeadlineExceeded)
    assert expired.stage == "search.batch_score"
    assert len(before) > 0 and len(after) == TOP_K  # index-pruned / subset
    with pytest.raises(DeadlineExceeded):
        engine.query_video(clip.clip, features=FEATURES, top_k=TOP_K)
    engine.close()
