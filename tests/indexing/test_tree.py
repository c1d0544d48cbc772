"""Range-index tree tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.imaging.image import Image
from repro.indexing.rangefinder import Bucket, RangeFinder
from repro.indexing.tree import BucketColumns, RangeIndex


def _flat(v):
    return Image.blank(12, 10, v)


def _columns(frames):
    """``BucketColumns`` over ``{frame id: Bucket}``."""
    return BucketColumns(
        np.array(list(frames), dtype=object),
        np.array([b.min for b in frames.values()], dtype=np.int64),
        np.array([b.max for b in frames.values()], dtype=np.int64),
    )


def _index(**frames):
    """An index viewing ``{id: image or Bucket}`` -- the store's role."""
    finder = RangeFinder()
    buckets = {
        fid: f if isinstance(f, Bucket) else finder.bucket_for_image(f)
        for fid, f in frames.items()
    }
    return RangeIndex(finder, SimpleNamespace(columns=_columns(buckets)))


class TestInsertRemove:
    """No table of its own: the index sees the source's rows at once."""

    def test_insert_and_lookup(self):
        idx = _index(f1=_flat(10))  # dark -> deep left bucket
        assert "f1" in idx and "f2" not in idx
        assert idx.bucket_of("f1").max <= 127
        with pytest.raises(KeyError):
            idx.bucket_of("f2")

    def test_reinsert_moves(self):
        idx = _index(f1=_flat(10))
        idx.source.columns = _columns({"f1": idx.finder.bucket_for_image(_flat(250))})
        assert len(idx) == 1
        assert idx.bucket_of("f1").min >= 128

    def test_remove(self):
        idx = _index(f1=_flat(10), f2=_flat(12))
        idx.source.columns = _columns({"f2": idx.finder.bucket_for_image(_flat(12))})
        assert "f1" not in idx and "f2" in idx
        assert len(idx) == 1
        with pytest.raises(KeyError):
            idx.bucket_of("f1")

    def test_stats(self):
        idx = _index(a=_flat(10), b=_flat(12), c=_flat(250))
        stats = idx.stats()
        assert stats.n_entries == 3
        assert stats.n_buckets == 2
        assert stats.bucket_sizes[stats.largest_bucket] == 2
        assert stats.mean_bucket_size == pytest.approx(1.5)


class TestCandidates:
    def test_same_bucket_found(self):
        idx = _index(a=_flat(10), b=_flat(12))
        assert idx.candidates(_flat(11)) == {"a", "b"}

    def test_disjoint_bucket_pruned(self):
        idx = _index(dark=_flat(10), bright=_flat(250))
        cands = idx.candidates(_flat(11))
        assert "dark" in cands and "bright" not in cands

    def test_ancestor_bucket_included(self):
        # a frame bucketed at the root must be a candidate for any query
        gen = np.random.default_rng(0)
        idx = _index(spread=Image(gen.integers(0, 256, (16, 16), dtype=np.uint8)))
        assert idx.bucket_of("spread") == Bucket(0, 255)
        assert "spread" in idx.candidates(_flat(10))
        assert "spread" in idx.candidates(_flat(250))

    def test_candidates_for_bucket_direct(self):
        idx = _index(x=Bucket(0, 31), y=Bucket(0, 127), z=Bucket(128, 255))
        assert idx.candidates_for_bucket(Bucket(0, 63)) == {"x", "y"}

    def test_pruning_factor(self):
        idx = _index(
            **{f"d{i}": _flat(10 + i) for i in range(5)},
            **{f"b{i}": _flat(245 + i) for i in range(5)},
        )
        factor = idx.pruning_factor([_flat(12), _flat(247)])
        assert factor == pytest.approx(0.5)

    def test_empty_index(self):
        idx = _index()
        assert idx.candidates(_flat(5)) == set()
        assert idx.pruning_factor([_flat(5)]) == 0.0
        assert idx.stats().largest_bucket is None
