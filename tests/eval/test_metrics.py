"""Retrieval metric tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import average_precision, precision_at_k, recall_at_k

rel_list = st.lists(st.booleans(), min_size=0, max_size=50)


class TestPrecisionAtK:
    def test_all_relevant(self):
        assert precision_at_k([True] * 10, 5) == 1.0

    def test_none_relevant(self):
        assert precision_at_k([False] * 10, 5) == 0.0

    def test_partial(self):
        assert precision_at_k([True, False, True, False], 4) == 0.5

    def test_short_list_padded_as_irrelevant(self):
        assert precision_at_k([True, True], 4) == 0.5

    def test_k_validation(self):
        with pytest.raises(ValueError):
            precision_at_k([True], 0)

    @settings(max_examples=40, deadline=None)
    @given(rel=rel_list, k=st.integers(1, 60))
    def test_bounds_property(self, rel, k):
        p = precision_at_k(rel, k)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(rel=rel_list)
    def test_monotone_in_prefix_hits(self, rel):
        # adding a relevant item at the front never lowers precision@k
        k = max(1, len(rel))
        assert precision_at_k([True] + rel, k) >= precision_at_k([False] + rel, k)


class TestRecall:
    def test_full_recall(self):
        assert recall_at_k([True, True], 2, n_relevant=2) == 1.0

    def test_half_recall(self):
        assert recall_at_k([True, False], 2, n_relevant=2) == 0.5

    def test_zero_relevant(self):
        assert recall_at_k([False], 1, n_relevant=0) == 0.0

    def test_capped_at_one(self):
        assert recall_at_k([True, True, True], 3, n_relevant=2) == 1.0


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([True, True, False, False]) == 1.0

    def test_known_value(self):
        # relevant at ranks 1 and 3: AP = (1/1 + 2/3)/2
        assert average_precision([True, False, True]) == pytest.approx((1 + 2 / 3) / 2)

    def test_with_corpus_count(self):
        # same hits but 4 relevant in corpus: AP denominators change
        assert average_precision([True, False, True], n_relevant=4) == pytest.approx(
            (1 + 2 / 3) / 4
        )

    def test_empty(self):
        assert average_precision([]) == 0.0
        assert average_precision([False, False]) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(rel=rel_list)
    def test_ap_bounds(self, rel):
        assert 0.0 <= average_precision(rel) <= 1.0
