"""Top-k selection and streaming accumulator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neighbors.topk import TopKAccumulator, select_topk

#: Heavy ties, both infinities, both zeros and NaN.
_TIE_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])


@st.composite
def _blocks(draw, min_cols=1):
    """A small tie-heavy block, in C or Fortran memory order."""
    n_rows = draw(st.integers(0, 4))
    n_cols = draw(st.integers(min_cols, 12))
    cells = draw(st.lists(_TIE_VALUES, min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    block = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)
    return block if draw(st.booleans()) else np.asfortranarray(block)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestSelectTopk:
    def test_matches_argsort(self, rng):
        d = rng.random((10, 40))
        val, idx = select_topk(d, 5)
        want_idx = np.argsort(d, axis=1)[:, :5]
        np.testing.assert_allclose(val, np.take_along_axis(d, want_idx, 1))

    def test_sorted_output(self, rng):
        val, _ = select_topk(rng.random((6, 30)), 7)
        assert np.all(np.diff(val, axis=1) >= 0)

    def test_k_larger_than_cols(self, rng):
        d = rng.random((4, 3))
        val, idx = select_topk(d, 10)
        assert val.shape == (4, 3)
        np.testing.assert_allclose(val, np.sort(d, axis=1))

    def test_descending(self, rng):
        d = rng.random((5, 20))
        val, _ = select_topk(d, 4, ascending=False)
        np.testing.assert_allclose(val[:, 0], d.max(axis=1))
        assert np.all(np.diff(val, axis=1) <= 0)

    def test_deterministic_ties(self):
        d = np.zeros((2, 6))
        _, idx = select_topk(d, 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2], [0, 1, 2]])

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            select_topk(rng.random((2, 2)), 0)

    def test_1d_rejected(self, rng):
        with pytest.raises(ValueError):
            select_topk(rng.random(5), 2)


class TestAccumulator:
    def test_batched_equals_oneshot(self, rng):
        d = rng.random((8, 57))
        acc = TopKAccumulator(8, 6)
        for start in range(0, 57, 10):
            acc.update(d[:, start:start + 10], start)
        got_val, got_idx = acc.finalize()
        want_val, want_idx = select_topk(d, 6)
        np.testing.assert_allclose(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)

    def test_single_batch(self, rng):
        d = rng.random((3, 9))
        acc = TopKAccumulator(3, 4)
        acc.update(d, 0)
        val, idx = acc.finalize()
        w_val, w_idx = select_topk(d, 4)
        np.testing.assert_allclose(val, w_val)
        np.testing.assert_array_equal(idx, w_idx)

    def test_tiny_batches(self, rng):
        d = rng.random((5, 20))
        acc = TopKAccumulator(5, 3)
        for c in range(20):
            acc.update(d[:, c:c + 1], c)
        val, idx = acc.finalize()
        w_val, w_idx = select_topk(d, 3)
        np.testing.assert_allclose(val, w_val)
        np.testing.assert_array_equal(idx, w_idx)

    def test_row_mismatch_rejected(self, rng):
        acc = TopKAccumulator(4, 2)
        with pytest.raises(ValueError):
            acc.update(rng.random((3, 5)), 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TopKAccumulator(5, 0)


class TestBoundaryTies:
    def test_partition_boundary_ties_pick_smallest_ids(self):
        """Entries tied exactly at the k boundary must resolve by index,
        whatever subset argpartition happened to keep."""
        d = np.array([[5.0, 1.0, 1.0, 1.0, 1.0, 0.5]])
        _, idx = select_topk(d, 3)
        np.testing.assert_array_equal(idx, [[5, 1, 2]])

    def test_split_selection_equals_full_selection(self, rng):
        """Selecting per column-half then merging must equal one full
        selection even when values repeat across the split."""
        vals = rng.integers(0, 4, size=(6, 30)).astype(np.float64)
        want_val, want_idx = select_topk(vals, 5)
        acc = TopKAccumulator(6, 5)
        acc.update(vals[:, :13], 0)
        acc.update(vals[:, 13:], 13)
        got_val, got_idx = acc.finalize()
        np.testing.assert_array_equal(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)


class TestStableOracle:
    """``select_topk`` keeps exactly the ids of a stable argsort: NaN after
    +inf, every tie (NaN among NaN, -0.0 with 0.0) by lowest index."""

    @settings(max_examples=300, deadline=None)
    @given(block=_blocks(), data=st.data(), ascending=st.booleans())
    def test_equals_stable_argsort(self, block, data, ascending):
        n_cols = block.shape[1]
        k = data.draw(st.integers(1, n_cols + 2))
        keyed = block if ascending else -block
        want_idx = np.argsort(keyed, axis=1, kind="stable")[:, :k]
        val, idx = select_topk(block, k, ascending=ascending)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(
            _bits(val), _bits(np.take_along_axis(block, want_idx, axis=1)))

    @settings(max_examples=200, deadline=None)
    @given(block=_blocks(min_cols=2), data=st.data())
    def test_split_accumulator_equals_full(self, block, data):
        n_cols = block.shape[1]
        k = data.draw(st.integers(1, n_cols))
        split = data.draw(st.integers(1, n_cols - 1))
        acc = TopKAccumulator(block.shape[0], k)
        acc.update(block[:, :split], 0)
        acc.update(block[:, split:], split)
        got_val, got_idx = acc.finalize()
        want_val, want_idx = select_topk(block, k)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(_bits(got_val), _bits(want_val))

    def test_nan_ties_resolve_by_index(self):
        row = np.array([[np.nan, 1.0, np.nan, 2.0] + [np.nan] * 20 + [0.0]])
        _, idx = select_topk(row, 4)
        np.testing.assert_array_equal(idx, [[24, 1, 3, 0]])

    def test_nan_and_boundary_ties_straddle_split(self):
        d = np.array([[1.0, np.nan, 1.0, 0.0, 1.0, 1.0, np.nan, 0.0],
                      [np.nan, np.nan, 5.0, np.nan, 4.0, np.nan, np.nan,
                       np.nan]])
        acc = TopKAccumulator(2, 5)
        acc.update(d[:, :4], 0)
        acc.update(d[:, 4:], 4)
        _, idx = acc.finalize()
        np.testing.assert_array_equal(idx, [[3, 7, 0, 2, 4], [4, 2, 0, 1, 3]])
        np.testing.assert_array_equal(idx, select_topk(d, 5)[1])


class TestUpdateValidation:
    def test_rejects_1d_batch(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            TopKAccumulator(4, 2).update(rng.random(5), 0)

    def test_rejects_row_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="rows"):
            TopKAccumulator(4, 2).update(rng.random((3, 5)), 0)

    def test_rejects_negative_offset(self, rng):
        with pytest.raises(ValueError, match="col_offset"):
            TopKAccumulator(4, 2).update(rng.random((4, 5)), -1)

    def test_rejects_bad_offset_indices(self, rng):
        acc = TopKAccumulator(4, 2)
        with pytest.raises(ValueError, match="1-D"):
            acc.update(rng.random((4, 5)),
                       offset_indices=np.zeros((5, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="columns"):
            acc.update(rng.random((4, 5)),
                       offset_indices=np.arange(4))


class TestOffsetIndices:
    def test_remaps_to_global_ids(self, rng):
        d = rng.random((3, 4))
        ids = np.array([7, 2, 11, 5])
        acc = TopKAccumulator(3, 2)
        acc.update(d, offset_indices=ids)
        _, idx = acc.finalize()
        assert set(idx.ravel()) <= set(ids.tolist())
        # column argmin maps through the id table
        np.testing.assert_array_equal(idx[:, 0], ids[np.argmin(d, axis=1)])

    def test_interleaved_shards_equal_full(self, rng):
        """Columns split round-robin across two 'shards' and merged via
        offset_indices must equal selecting over the full block."""
        d = rng.random((5, 16))
        want_val, want_idx = select_topk(d, 6)
        acc = TopKAccumulator(5, 6)
        even = np.arange(0, 16, 2)
        odd = np.arange(1, 16, 2)
        acc.update(d[:, even], offset_indices=even)
        acc.update(d[:, odd], offset_indices=odd)
        got_val, got_idx = acc.finalize()
        np.testing.assert_array_equal(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)


class TestUpdatePairs:
    def test_merges_preselected_candidates(self, rng):
        d = rng.random((4, 20))
        want_val, want_idx = select_topk(d, 5)
        acc = TopKAccumulator(4, 5)
        for lo, hi in ((0, 8), (8, 20)):
            val, idx = select_topk(d[:, lo:hi], 5)
            acc.update_pairs(val, idx + lo)
        got_val, got_idx = acc.finalize()
        np.testing.assert_array_equal(got_val, want_val)
        np.testing.assert_array_equal(got_idx, want_idx)

    def test_tie_break_by_global_id(self):
        """Candidates arriving in descending-id order still tie-break by
        the global id, not arrival position."""
        acc = TopKAccumulator(1, 2)
        acc.update_pairs(np.array([[1.0, 3.0]]), np.array([[9, 12]]))
        acc.update_pairs(np.array([[1.0, 1.0]]), np.array([[4, 2]]))
        val, idx = acc.finalize()
        np.testing.assert_array_equal(val, [[1.0, 1.0]])
        np.testing.assert_array_equal(idx, [[2, 4]])

    def test_shape_validation(self, rng):
        acc = TopKAccumulator(3, 2)
        with pytest.raises(ValueError, match="equal-shaped"):
            acc.update_pairs(rng.random((3, 4)),
                             np.zeros((3, 5), dtype=np.int64))
        with pytest.raises(ValueError, match="rows"):
            acc.update_pairs(rng.random((2, 4)),
                             np.zeros((2, 4), dtype=np.int64))

    def test_empty_batch_noop(self):
        acc = TopKAccumulator(2, 3)
        acc.update_pairs(np.zeros((2, 0)), np.zeros((2, 0), dtype=np.int64))
        val, idx = acc.finalize()
        assert val.shape == (2, 0)
