"""Clip-query driver tests (two categories, a handful of videos)."""

import pytest

from repro.eval.clipquery import run_clip_queries


def test_scores_every_clip_against_every_video():
    res = run_clip_queries(
        seed=5, videos_per_category=2, clips_per_category=2, categories=("sports", "news")
    )
    assert res.n_videos == 4
    assert len(res.precision_at_5) == len(res.average_precision) == 4
    # five ranks over four videos: at most the two relevant ones count
    assert all(p <= 2 / 5 for p in res.precision_at_5)
    assert all(0.0 < ap <= 1.0 for ap in res.average_precision)
    assert res.p_at_5 == sum(res.precision_at_5) / 4
    assert "P@5" in res.to_text()


def test_clip_seeds_never_reach_a_stored_video():
    with pytest.raises(ValueError):
        run_clip_queries(clips_per_category=501)
