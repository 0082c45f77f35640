"""Tests for the warp-level segmented reduction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monoid import MAX, MIN, PLUS
from repro.errors import SemiringError
from repro.gpusim.specs import VOLTA_V100
from repro.kernels.coo_spmv import LoadBalancedCooKernel
from repro.kernels.segmented import segment_boundaries, warp_segmented_reduce
from repro.sparse.csr import CSRMatrix


def _sorted_keys(rng, n, n_keys):
    return np.sort(rng.integers(0, n_keys, size=n))


class TestSegmentBoundaries:
    def test_basic(self):
        np.testing.assert_array_equal(
            segment_boundaries(np.array([0, 0, 1, 1, 1, 4])), [0, 2, 5])

    def test_empty(self):
        assert segment_boundaries(np.array([])).size == 0

    def test_single_segment(self):
        np.testing.assert_array_equal(
            segment_boundaries(np.array([7, 7, 7])), [0])


class TestWarpSegmentedReduce:
    def test_matches_bincount(self, rng):
        keys = _sorted_keys(rng, 500, 37)
        values = rng.normal(size=500)
        out, _ = warp_segmented_reduce(keys, values, PLUS, n_keys=37)
        want = np.bincount(keys, weights=values, minlength=37)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_max_reduce(self, rng):
        keys = _sorted_keys(rng, 300, 11)
        values = rng.normal(size=300)
        out, _ = warp_segmented_reduce(keys, values, MAX, n_keys=11)
        for k in range(11):
            sel = values[keys == k]
            want = sel.max() if sel.size else MAX.identity
            assert out[k] == pytest.approx(want)

    def test_min_identity_for_untouched(self):
        out, _ = warp_segmented_reduce(np.array([2]), np.array([5.0]), MIN,
                                       n_keys=4)
        assert out[0] == MIN.identity
        assert out[2] == 5.0

    def test_empty_stream(self):
        out, atomics = warp_segmented_reduce(np.array([], dtype=np.int64),
                                             np.array([]), PLUS, n_keys=5)
        np.testing.assert_allclose(out, 0.0)
        assert atomics == 0

    def test_unsorted_keys_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            warp_segmented_reduce(np.array([3, 1]), np.ones(2), PLUS,
                                  n_keys=4)

    def test_out_of_range_keys_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            warp_segmented_reduce(np.array([9]), np.ones(1), PLUS, n_keys=4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            warp_segmented_reduce(np.array([0]), np.ones(2), PLUS, n_keys=1)

    def test_unknown_reduce(self):
        from repro.core.monoid import Monoid
        odd = Monoid("xor", np.logical_xor, identity=0.0)
        with pytest.raises(SemiringError):
            warp_segmented_reduce(np.array([0]), np.ones(1), odd, n_keys=1)


class TestAtomicBound:
    """§3.3: writes are bounded by active warps per segment."""

    def test_one_atomic_per_warp_segment_pair(self, rng):
        keys = _sorted_keys(rng, 1000, 50)
        values = rng.random(1000)
        _, atomics = warp_segmented_reduce(keys, values, PLUS, n_keys=50,
                                           warp_size=32)
        n_warps = -(-1000 // 32)
        n_segments = np.unique(keys).size
        assert atomics <= n_warps + n_segments
        assert atomics >= n_segments  # every segment writes at least once

    def test_single_long_segment_one_write_per_warp(self):
        keys = np.zeros(320, dtype=np.int64)
        _, atomics = warp_segmented_reduce(keys, np.ones(320), PLUS,
                                           n_keys=1, warp_size=32)
        assert atomics == 10  # 10 warps, each a leader once

    def test_many_tiny_segments_one_write_each(self):
        keys = np.arange(64, dtype=np.int64)
        _, atomics = warp_segmented_reduce(keys, np.ones(64), PLUS,
                                           n_keys=64, warp_size=32)
        assert atomics == 64


def _unique_pairs(keys, warp_size, n_keys):
    """The atomic count as distinct (warp, key) pairs, by brute force."""
    warp_ids = np.arange(keys.size, dtype=np.int64) // warp_size
    return np.unique(warp_ids * np.int64(n_keys) + keys).size


class TestAtomicCountOracle:
    """Both atomic counters equal distinct (warp, key) pairs on any
    non-decreasing key stream."""

    @settings(max_examples=150, deadline=None)
    @given(degrees=st.lists(st.integers(0, 70), max_size=40),
           warp_size=st.sampled_from([1, 2, 7, 32, 64]))
    def test_warp_segmented_reduce(self, degrees, warp_size):
        n_keys = len(degrees)
        keys = np.repeat(np.arange(n_keys, dtype=np.int64), degrees)
        _, atomics = warp_segmented_reduce(keys, np.ones(keys.size), PLUS,
                                           n_keys=n_keys,
                                           warp_size=warp_size)
        assert atomics == _unique_pairs(keys, warp_size, n_keys)

    @settings(max_examples=150, deadline=None)
    @given(degrees=st.lists(st.integers(0, 70), max_size=40),
           warp_size=st.sampled_from([1, 2, 4, 32, 64]))
    def test_atomics_per_block(self, degrees, warp_size):
        n_rows = len(degrees)
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), degrees)
        cols = np.arange(rows.size) - indptr[rows]  # 0..degree-1 per row
        streamed = CSRMatrix(indptr, cols, np.ones(rows.size), (n_rows, 70))
        kernel = LoadBalancedCooKernel(replace(VOLTA_V100,
                                               warp_size=warp_size))
        assert (kernel._atomics_per_block(streamed)
                == _unique_pairs(rows, warp_size, n_rows))
