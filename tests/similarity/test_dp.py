"""Dynamic-programming sequence similarity tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.dp import (
    align_score,
    align_sequences,
    dtw_distance,
    pairwise_cost_matrix,
    sequence_similarity,
    span_distances,
)


def scalar_cost(a, b):
    return abs(a - b)


class TestCostMatrix:
    def test_values(self):
        m = pairwise_cost_matrix([1, 2], [1, 3], scalar_cost)
        assert m.tolist() == [[0, 2], [1, 1]]


class TestDtw:
    def test_identical_sequences_zero(self):
        seq = [1.0, 5.0, 3.0]
        assert dtw_distance(seq, seq, scalar_cost) == 0.0

    def test_known_small_case(self):
        # classic: [0,0,1] vs [0,1]; optimal path cost 0
        assert dtw_distance([0, 0, 1], [0, 1], scalar_cost, normalize=False) == 0.0

    def test_shift_tolerated(self):
        a = [0, 0, 5, 0, 0]
        b = [0, 5, 0, 0, 0]
        # DTW absorbs the time shift; L1 on aligned positions would be 10
        assert dtw_distance(a, b, scalar_cost, normalize=False) == 0.0

    def test_different_sequences_positive(self):
        assert dtw_distance([0, 0], [9, 9], scalar_cost) > 0

    def test_normalization_divides_by_lengths(self):
        a, b = [0, 0], [9, 9]
        raw = dtw_distance(a, b, scalar_cost, normalize=False)
        norm = dtw_distance(a, b, scalar_cost, normalize=True)
        assert norm == pytest.approx(raw / 4)

    def test_window_band(self):
        a = list(range(10))
        b = list(range(10))
        assert dtw_distance(a, b, scalar_cost, window=1) == 0.0

    def test_window_smaller_than_length_gap_widened(self):
        # |len(a) - len(b)| > window must still admit a path
        a = list(range(8))
        b = list(range(3))
        d = dtw_distance(a, b, scalar_cost, window=1)
        assert np.isfinite(d)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1], scalar_cost)

    def test_symmetry(self):
        a = [1, 3, 2, 8]
        b = [2, 2, 9]
        assert dtw_distance(a, b, scalar_cost) == pytest.approx(
            dtw_distance(b, a, scalar_cost)
        )


class TestAlignment:
    def test_identical_full_match(self):
        total, pairs = align_sequences([1, 2, 3], [1, 2, 3], scalar_cost, gap_penalty=10)
        assert total == 0.0
        assert pairs == [(0, 0), (1, 1), (2, 2)]

    def test_insertion_gap(self):
        total, pairs = align_sequences([1, 3], [1, 2, 3], scalar_cost, gap_penalty=0.6)
        assert total == pytest.approx(0.6)
        assert (None, 1) in pairs

    def test_deletion_gap(self):
        total, pairs = align_sequences([1, 2, 3], [1, 3], scalar_cost, gap_penalty=0.6)
        assert (1, None) in pairs

    def test_expensive_gaps_force_matches(self):
        total, pairs = align_sequences([0, 10], [1, 11], scalar_cost, gap_penalty=100)
        assert pairs == [(0, 0), (1, 1)]
        assert total == pytest.approx(2.0)

    def test_cheap_gaps_avoid_bad_matches(self):
        total, pairs = align_sequences([0], [100], scalar_cost, gap_penalty=1)
        matched = [(i, j) for i, j in pairs if i is not None and j is not None]
        assert matched == []
        assert total == pytest.approx(2.0)

    def test_empty_sequences(self):
        total, pairs = align_sequences([], [1, 2], scalar_cost, gap_penalty=3)
        assert total == 6.0
        assert pairs == [(None, 0), (None, 1)]


class TestSequenceSimilarity:
    def test_dtw_method(self):
        assert sequence_similarity([1, 2], [1, 2], scalar_cost, method="dtw") == 0.0

    def test_align_method_requires_gap(self):
        with pytest.raises(ValueError):
            sequence_similarity([1], [1], scalar_cost, method="align")

    def test_align_method(self):
        d = sequence_similarity([1], [1], scalar_cost, method="align", gap_penalty=1)
        assert d == 0.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sequence_similarity([1], [1], scalar_cost, method="lcs")

    def test_works_on_feature_vectors(self):
        from repro.features.base import FeatureVector
        from repro.similarity.measures import l2

        a = [FeatureVector(kind="x", values=np.array([float(i)])) for i in range(3)]
        b = [FeatureVector(kind="x", values=np.array([float(i)])) for i in range(3)]
        cost = lambda u, v: l2(u.values, v.values)
        assert dtw_distance(a, b, cost) == 0.0


class TestPrecomputedCosts:
    """A caller holding the cost matrix passes it in place of the callable."""

    a, b = [0.0, 2.0, 5.0], [1.0, 2.0, 2.5, 7.0]

    def matrix(self):
        return pairwise_cost_matrix(self.a, self.b, scalar_cost)

    def test_matrix_is_used_as_is(self):
        m = self.matrix()
        assert pairwise_cost_matrix(self.a, self.b, m) is m

    def test_wrong_shape_is_refused(self):
        with pytest.raises(ValueError):
            dtw_distance(self.a, self.b, self.matrix().T)

    def test_same_values_as_the_callable(self):
        m = self.matrix()
        assert dtw_distance(self.a, self.b, m) == dtw_distance(self.a, self.b, scalar_cost)
        assert dtw_distance(self.a, self.b, m, window=1) == dtw_distance(
            self.a, self.b, scalar_cost, window=1
        )
        assert align_sequences(self.a, self.b, m, 0.7) == align_sequences(
            self.a, self.b, scalar_cost, 0.7
        )

    def test_align_score_is_the_alignment_total(self):
        for gap in (0.1, 0.7, 50.0):
            total, _pairs = align_sequences(self.a, self.b, scalar_cost, gap)
            assert align_score(self.a, self.b, scalar_cost, gap) == total
        assert align_score([], [1, 2], scalar_cost, 3) == 6.0


class TestSpanDistances:
    """One batched recurrence == one per-pair table per stored sequence."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_the_per_pair_functions(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_query = data.draw(st.integers(1, 5))
        lengths = data.draw(st.lists(st.integers(1, 9), min_size=0, max_size=7))
        layout = rng.permutation(len(lengths))  # spans need not lie in order
        starts = np.zeros(len(lengths), dtype=int)
        starts[layout] = np.concatenate([[0], np.cumsum(np.take(lengths, layout))[:-1]])
        costs = rng.random((n_query, sum(lengths)))
        if data.draw(st.booleans()):
            costs = np.round(costs, 1)  # ties between the three predecessors
        spans = [slice(start, start + n) for start, n in zip(starts, lengths)]
        for method, kwargs in (("dtw", {}), ("align", {"gap_penalty": 0.3})):
            got = span_distances(costs, spans, method=method, **kwargs)
            assert got.shape == (len(spans),)
            for v, span in enumerate(spans):
                want = sequence_similarity(
                    range(n_query), range(lengths[v]), costs[:, span], method=method, **kwargs
                )
                assert got[v] == want

    def test_argument_checks(self):
        costs = np.ones((2, 3))
        with pytest.raises(ValueError):
            span_distances(costs, [slice(0, 3)], method="lcs")
        with pytest.raises(ValueError):
            span_distances(costs, [slice(0, 3), slice(3, 3)])  # DTW of an empty sequence
        with pytest.raises(ValueError):
            span_distances(np.ones((0, 3)), [slice(0, 3)])
