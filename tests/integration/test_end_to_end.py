"""Full-pipeline integration tests: the paper's workflow end to end."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.eval.groundtruth import CategoryGroundTruth
from repro.eval.metrics import precision_at_k
from repro.video.generator import VideoSpec, generate_video


class TestEndToEnd:
    def test_ingest_search_delete_cycle(self, small_corpus):
        system = VideoRetrievalSystem.in_memory()
        admin = system.login_admin()
        reports = [admin.add_video(v) for v in small_corpus]
        assert system.n_videos() == len(small_corpus)

        # every stored key frame retrieves itself at rank 1
        for report in reports[:3]:
            for fid in report.keyframe_ids:
                hits = system.search(system.get_key_frame(fid), top_k=1)
                assert hits[0].frame_id == fid

        # delete half the corpus, search still consistent
        for report in reports[::2]:
            admin.delete_video(report.video_id)
        assert system.n_videos() == len(small_corpus) // 2
        results = system.search(system.any_key_frame(), top_k=100, use_index=False)
        assert results.n_candidates == system.n_key_frames()

    def test_retrieval_beats_chance_by_category(self, ingested_system, ground_truth):
        """Combined retrieval precision must beat the random baseline by a
        wide margin (5 categories -> chance ~ 0.2).  The small corpus has
        only ~3 key frames per category, so measure at k=2 where the
        ceiling is 1.0."""
        store = ingested_system._store
        precisions = []
        for fid in store.frame_ids():
            query = ingested_system.get_key_frame(fid)
            results = ingested_system.search(query, top_k=3, use_index=False)
            ranked = [h.frame_id for h in results if h.frame_id != fid][:2]
            rel = ground_truth.relevance_list(fid, ranked)
            precisions.append(precision_at_k(rel, 2))
        mean_p = sum(precisions) / len(precisions)
        assert mean_p > 0.55, f"mean precision@2 {mean_p:.2f} barely beats chance"

    def test_index_pruning_costs_little_precision(self, ingested_system, ground_truth):
        store = ingested_system._store
        p_indexed, p_full = [], []
        for fid in store.frame_ids()[::2]:
            query = ingested_system.get_key_frame(fid)
            for use_index, acc in ((True, p_indexed), (False, p_full)):
                results = ingested_system.search(query, top_k=3, use_index=use_index)
                ranked = [h.frame_id for h in results if h.frame_id != fid][:2]
                acc.append(precision_at_k(ground_truth.relevance_list(fid, ranked), 2))
        mean_indexed = sum(p_indexed) / len(p_indexed)
        mean_full = sum(p_full) / len(p_full)
        # Pruning trades recall for speed; on a tiny corpus (few relevant
        # frames per query) the cost can be large.  The invariants that must
        # hold: indexed retrieval still beats the 0.2 chance level, and the
        # full scan is never *worse* than the pruned search on average.
        assert mean_indexed > 0.2
        assert mean_full >= mean_indexed - 0.05

    def test_durable_system_full_cycle(self, tmp_path, small_corpus):
        path = str(tmp_path / "e2e.rdb")
        system = VideoRetrievalSystem.open(path)
        admin = system.login_admin()
        for v in small_corpus[:4]:
            admin.add_video(v)
        admin.checkpoint()
        admin.add_video(small_corpus[4])  # lives only in the WAL
        expected_frames = system.n_key_frames()
        query = system.get_key_frame(1)
        before = [h.frame_id for h in system.search(query, top_k=10, use_index=False)]
        system.close()

        reopened = VideoRetrievalSystem.open(path)
        assert reopened.n_key_frames() == expected_frames
        after = [h.frame_id for h in reopened.search(query, top_k=10, use_index=False)]
        assert after == before
        reopened.close()

    def test_web_and_core_agree(self, ingested_system, small_corpus):
        """The HTTP facade must return the same ranking as the core API."""
        import json

        from repro.web.api import CbvrApi

        api = CbvrApi(ingested_system)
        query = small_corpus[3].frames[0]
        core = ingested_system.search(query, top_k=5)
        _status, _ct, body = api.handle(
            "POST", "/search", body=query.encode("ppm"), query={"top_k": "5"}
        )
        web_ids = [r["frame_id"] for r in json.loads(body)["results"]]
        assert web_ids == core.frame_ids()

    def test_fresh_clip_video_retrieval(self, ingested_system):
        clip = generate_video(
            VideoSpec(category="movies", seed=31337, n_shots=2, frames_per_shot=5)
        )
        matches = ingested_system.search_by_video(clip, top_k=4)
        assert matches
        top_categories = [m.category for m in matches[:2]]
        assert "movies" in top_categories

    def test_config_variants_run(self, small_corpus):
        """Exercise non-default configurations through the whole pipeline."""
        config = SystemConfig(
            features=("sch", "gabor"),
            fusion_weights={"gabor": 2.0},
            use_index=False,
            keyframe_threshold=400.0,
        )
        system = VideoRetrievalSystem.in_memory(config)
        for v in small_corpus[:4]:
            system.admin.add_video(v)
        results = system.search(system.any_key_frame(), top_k=5)
        assert results
        assert set(results[0].per_feature) == {"sch", "gabor"}
