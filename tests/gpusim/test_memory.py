"""Coalescing and bank-conflict model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.memory import (
    TRANSACTION_BYTES,
    bank_conflicts_for_offsets,
    coalesced_transactions,
    strided_transactions,
    uncoalesced_transactions,
    warp_bank_conflicts,
)


class TestCoalescing:
    def test_warp_of_f32_is_one_transaction(self):
        # 32 contiguous 4-byte loads = 128 bytes = exactly one transaction.
        assert coalesced_transactions(32, itemsize=4) == 1.0

    def test_scales_linearly(self):
        assert coalesced_transactions(3200, itemsize=4) == 100.0

    def test_rounds_up(self):
        assert coalesced_transactions(33, itemsize=4) == 2.0

    def test_zero_and_negative(self):
        assert coalesced_transactions(0) == 0.0
        assert uncoalesced_transactions(-5) == 0.0

    def test_uncoalesced_is_one_per_element(self):
        assert uncoalesced_transactions(100) == 100.0

    def test_uncoalesced_is_32x_worse_for_f32(self):
        n = 3200
        assert (uncoalesced_transactions(n)
                == 32 * coalesced_transactions(n, itemsize=4))


class TestStrided:
    def test_stride_one_equals_coalesced(self):
        assert strided_transactions(64, 1) == coalesced_transactions(64)

    def test_huge_stride_equals_uncoalesced(self):
        assert strided_transactions(64, 1000) == uncoalesced_transactions(64)

    def test_intermediate_stride_between(self):
        mid = strided_transactions(64, 4)
        assert coalesced_transactions(64) < mid <= uncoalesced_transactions(64)


class TestBankConflicts:
    def test_conflict_free_sequential(self):
        # Lane i -> word i: each lane hits its own bank.
        addrs = np.arange(32) * 4
        assert warp_bank_conflicts(addrs, itemsize=4) == 0

    def test_broadcast_is_free(self):
        # All lanes reading the same address broadcast without conflict.
        addrs = np.zeros(32, dtype=np.int64)
        assert warp_bank_conflicts(addrs, itemsize=4) == 0

    def test_stride_two_serializes(self):
        # Stride-2 words: 16 banks each hit by 2 distinct words -> 16 extra.
        addrs = np.arange(32) * 2 * 4
        assert warp_bank_conflicts(addrs, itemsize=4) == 16

    def test_worst_case_same_bank(self):
        # All 32 lanes hit 32 distinct words in one bank: 31 extra cycles.
        addrs = np.arange(32) * 32 * 4
        assert warp_bank_conflicts(addrs, itemsize=4) == 31

    def test_empty(self):
        assert warp_bank_conflicts(np.array([], dtype=np.int64)) == 0


class TestStreamConflicts:
    def test_matches_per_warp_sum(self, rng):
        offsets = rng.integers(0, 4096, size=32 * 7) * 4
        total = bank_conflicts_for_offsets(offsets, itemsize=4)
        per_warp = sum(
            warp_bank_conflicts(offsets[i:i + 32], itemsize=4)
            for i in range(0, offsets.size, 32))
        assert total == per_warp

    def test_partial_final_warp(self, rng):
        offsets = rng.integers(0, 512, size=40) * 4
        total = bank_conflicts_for_offsets(offsets, itemsize=4)
        per_warp = (warp_bank_conflicts(offsets[:32], itemsize=4)
                    + warp_bank_conflicts(offsets[32:], itemsize=4))
        assert total == per_warp

    def test_empty_stream(self):
        assert bank_conflicts_for_offsets(np.array([], dtype=np.int64)) == 0


def _per_warp_oracle(offsets, warp_size, n_banks, itemsize):
    return sum(warp_bank_conflicts(offsets[i:i + warp_size], n_banks=n_banks,
                                   itemsize=itemsize)
               for i in range(0, offsets.size, warp_size))


@st.composite
def _offset_streams(draw):
    """Offset streams of any length (so partial final warps), drawn wide
    (up to 2**40, where a packed key would overflow), narrow (many lanes
    sharing a bank), or all equal (a broadcast)."""
    n = draw(st.integers(0, 200))
    kind = draw(st.sampled_from(["wide", "narrow", "broadcast"]))
    if kind == "broadcast":
        return np.full(n, draw(st.integers(0, 2**40)), dtype=np.int64)
    hi = 2**40 if kind == "wide" else draw(st.integers(0, 512))
    return np.asarray(draw(st.lists(st.integers(0, hi), min_size=n,
                                    max_size=n)), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(offsets=_offset_streams(), warp_size=st.integers(1, 64),
       n_banks=st.sampled_from([1, 4, 32]),
       itemsize=st.sampled_from([1, 4, 8]))
def test_stream_conflicts_equal_per_warp_oracle(offsets, warp_size, n_banks,
                                                itemsize):
    # Byte offsets are drawn unaligned: lanes inside one word share it.
    assert (bank_conflicts_for_offsets(offsets, warp_size=warp_size,
                                       n_banks=n_banks, itemsize=itemsize)
            == _per_warp_oracle(offsets, warp_size, n_banks, itemsize))
