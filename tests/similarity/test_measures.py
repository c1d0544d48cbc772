"""Distance measure tests, including hypothesis-checked metric properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import measures
from repro.similarity.measures import (
    canberra,
    canberra_batch,
    l1,
    l1_batch,
    l2,
    l2_batch,
)

finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=20,
)
ALL_MEASURES = [l1, l2, canberra]


class TestKnownValues:
    def test_l1(self):
        assert l1([1, 2, 3], [2, 2, 5]) == 3.0

    def test_l2(self):
        assert l2([0, 0], [3, 4]) == 5.0

    def test_canberra(self):
        assert canberra([1, 0], [3, 0]) == pytest.approx(0.5)



class TestEdgeCases:
    def test_length_mismatch(self):
        for m in ALL_MEASURES:
            with pytest.raises(ValueError):
                m([1, 2], [1, 2, 3])

    def test_zero_vectors(self):
        assert canberra([0, 0], [0, 0]) == 0.0


@pytest.mark.parametrize("measure", [l1, l2, canberra])
class TestMetricPropertiesSigned:
    @settings(max_examples=30, deadline=None)
    @given(a=finite_vec)
    def test_identity(self, measure, a):
        assert measure(a, a) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_symmetry_and_nonnegativity(self, measure, data):
        a = data.draw(finite_vec)
        b = data.draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=len(a), max_size=len(a),
        ))
        d1, d2 = measure(a, b), measure(b, a)
        assert d1 >= 0
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)


class TestTriangleInequalityL1L2:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_triangle(self, data):
        n = data.draw(st.integers(1, 10))
        fl = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
        a = data.draw(st.lists(fl, min_size=n, max_size=n))
        b = data.draw(st.lists(fl, min_size=n, max_size=n))
        c = data.draw(st.lists(fl, min_size=n, max_size=n))
        for m in (l1, l2):
            assert m(a, c) <= m(a, b) + m(b, c) + 1e-6


# -- the blocked row-wise kernels against the expressions they replaced ------


def _naive_l1(q, m):
    return np.abs(m - q).sum(axis=1)


def _naive_l2(q, m):
    return np.sqrt(((m - q) ** 2).sum(axis=1))


def _naive_canberra(q, m):
    denom = np.abs(m) + np.abs(q)
    num = np.abs(m - q)
    return np.where(denom > 1e-12, num / np.maximum(denom, 1e-300), 0.0).sum(axis=1)


#: (blocked kernel, whole-matrix NumPy reference, scalar measure, scratch buffers)
KERNELS = [
    (l1_batch, _naive_l1, l1, 1),
    (l2_batch, _naive_l2, l2, 1),
    (canberra_batch, _naive_canberra, canberra, 2),
]
ROW_KINDS = ["none", "sorted", "unsorted", "duplicates"]


def _block_rows(d, n_scratch):
    return measures._BLOCK_BYTES // (8 * n_scratch * d)


def _draw_rows(kind, n, rng):
    if kind == "none":
        return None
    if kind == "sorted":
        return np.sort(rng.choice(n, size=n // 2, replace=False)) if n else np.empty(0, int)
    if kind == "unsorted":
        return rng.permutation(n)
    return rng.integers(0, n, size=n + 3) if n else np.empty(0, int)


def _sparse(rng, shape):
    """Random values with exact zeros mixed in (Canberra's skipped terms)."""
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.2] = 0.0
    return values


class TestBlockedKernels:
    @pytest.mark.parametrize("kernel,naive,scalar,n_scratch", KERNELS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equal_to_the_naive_expression(self, kernel, naive, scalar, n_scratch, data):
        d = data.draw(st.sampled_from([1, 5, 8, 60, 256]))
        block = _block_rows(d, n_scratch)
        n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 7]))
        kind = data.draw(st.sampled_from(ROW_KINDS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m, q = _sparse(rng, (n, d)), _sparse(rng, d)
        rows = _draw_rows(kind, n, rng)
        got = kernel(q, m, rows)
        want = naive(q, m if rows is None else m[rows])
        assert got.dtype == np.float64 and np.array_equal(got, want)
        for i in rng.choice(got.size, size=min(got.size, 5), replace=False):
            row = m[i] if rows is None else m[rows[i]]
            assert got[i] == pytest.approx(scalar(q, row), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("kernel,naive,scalar,n_scratch", KERNELS)
    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_memmap_column_views_and_float32(self, kernel, naive, scalar, n_scratch, kind, tmp_path):
        rng = np.random.default_rng(7)
        d = 18
        n = 2 * _block_rows(d, n_scratch) + 5
        full, q = _sparse(rng, (n, d)), _sparse(rng, d)
        rows = _draw_rows(kind, n, rng)

        def gathered(matrix):
            return matrix if rows is None else matrix[rows]

        path = tmp_path / "stack.f64"
        full.tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r", shape=(n, d))
        assert not mapped.flags.writeable
        assert np.array_equal(kernel(q, mapped, rows), naive(q, gathered(full)))
        # glcm drops its first column, tamura splits head from histogram
        for cols in (slice(1, None), slice(2, None), slice(None, 2)):
            view = mapped[:, cols]
            assert not view.flags.c_contiguous
            want = naive(q[cols], gathered(full[:, cols]))
            assert np.array_equal(kernel(q[cols], view, rows), want)
        single = full.astype(np.float32)
        want = naive(q, gathered(single.astype(np.float64)))
        assert np.array_equal(kernel(q, single, rows), want)

    @pytest.mark.parametrize("kernel,naive,scalar,n_scratch", KERNELS)
    def test_out_of_range_row_raises(self, kernel, naive, scalar, n_scratch):
        m = np.ones((4, 3))
        for bad in ([0, 4], [-5, 1]):
            with pytest.raises(IndexError):
                kernel(np.zeros(3), m, bad)
            with pytest.raises(IndexError):
                kernel(np.zeros(2), m[:, 1:], bad)  # the block-gather path
        assert np.array_equal(kernel(np.zeros(3), m, [-1, 3]), kernel(np.zeros(3), m[[3, 3]]))

    def test_shape_checks_survive(self):
        with pytest.raises(ValueError):
            l1_batch([1, 2], np.ones((3, 3)))
        with pytest.raises(ValueError):
            l1_batch([1, 2], np.ones((2, 2, 2)))
        assert l1_batch([1, 2], [1, 4]).tolist() == [2.0]  # a 1-D "matrix" is one row
