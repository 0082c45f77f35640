"""Global- and shared-memory access models (paper §3.1).

Two facts about GPU memory drive every design decision in the paper:

1. **Coalescing** — a warp's 32 contiguous 4-byte global loads collapse into
   a single 128-byte transaction when issued in the same instruction;
   scattered loads each pay their own transaction.
2. **Bank conflicts** — shared memory is striped across 32 banks; two lanes
   of a warp touching different addresses in the same bank serialize.

These helpers turn element counts / address arrays into transaction and
conflict counts for :class:`repro.gpusim.stats.KernelStats`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TRANSACTION_BYTES",
    "coalesced_transactions",
    "uncoalesced_transactions",
    "strided_transactions",
    "warp_bank_conflicts",
    "bank_conflicts_for_offsets",
]

#: Size of one global-memory transaction (a 128-byte cache sector).
TRANSACTION_BYTES = 128


def coalesced_transactions(n_elements: int, itemsize: int = 4,
                           warp_size: int = 32) -> float:
    """Transactions for ``n_elements`` contiguous lane accesses.

    Contiguous warp accesses of ``warp_size * itemsize`` bytes fold into
    ``ceil(bytes / TRANSACTION_BYTES)`` transactions.
    """
    if n_elements <= 0:
        return 0.0
    total_bytes = n_elements * itemsize
    return float(-(-total_bytes // TRANSACTION_BYTES))


def uncoalesced_transactions(n_elements: int) -> float:
    """Scattered accesses: every element pays a full transaction."""
    return float(max(0, n_elements))


def strided_transactions(n_elements: int, stride_elements: int,
                         itemsize: int = 4, warp_size: int = 32) -> float:
    """Transactions for a constant-stride access pattern.

    A stride of 1 coalesces perfectly; a stride of ``TRANSACTION_BYTES /
    itemsize`` or more degenerates to one transaction per element; strides
    in between touch proportionally many sectors per warp.
    """
    if n_elements <= 0:
        return 0.0
    if stride_elements <= 1:
        return coalesced_transactions(n_elements, itemsize, warp_size)
    elements_per_transaction = max(
        1, TRANSACTION_BYTES // (stride_elements * itemsize))
    return float(-(-n_elements // elements_per_transaction))


def warp_bank_conflicts(addresses: np.ndarray, n_banks: int = 32,
                        itemsize: int = 4) -> int:
    """Serialized extra cycles for one warp's shared-memory access.

    ``addresses`` are the byte (or element, with ``itemsize=1``) offsets the
    lanes of a single warp touch simultaneously. Lanes hitting the *same*
    address broadcast for free; lanes hitting *different* addresses in the
    same bank serialize, adding ``(distinct addresses in bank) - 1`` cycles.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return 0
    words = addresses // itemsize
    banks = words % n_banks
    conflicts = 0
    for bank in np.unique(banks):
        distinct = np.unique(words[banks == bank]).size
        conflicts += max(0, distinct - 1)
    return int(conflicts)


def bank_conflicts_for_offsets(offsets: np.ndarray, warp_size: int = 32,
                               n_banks: int = 32, itemsize: int = 4) -> int:
    """Total bank-conflict cycles when a flat stream of shared-memory word
    offsets is issued ``warp_size`` lanes at a time.

    The stream is chunked into consecutive warps; each chunk is scored
    exactly as :func:`warp_bank_conflicts` scores it. Every word lives in
    one bank, so a warp's ``(distinct words in bank) - 1`` summed over the
    banks it touches is its distinct words minus its distinct banks. The
    stream is padded to whole warps with repeats of its last lane (a
    repeated address is a free broadcast) and reshaped to
    ``(n_warps, warp_size)``; each row's words, then its banks, are sorted,
    and the distinct values are the changes along each sorted row. That is
    ``O(n log warp_size)`` time and ``O(n)`` memory, with no packed key
    that could overflow.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = offsets.size
    if n == 0:
        return 0
    n_warps = -(-n // warp_size)
    words = np.empty(n_warps * warp_size, dtype=np.int64)
    np.floor_divide(offsets, itemsize, out=words[:n])
    words[n:] = words[n - 1]
    words = np.sort(words.reshape(n_warps, warp_size), axis=1)
    banks = np.sort(words % n_banks, axis=1)
    new_words = np.count_nonzero(words[:, 1:] != words[:, :-1])
    new_banks = np.count_nonzero(banks[:, 1:] != banks[:, :-1])
    return int(new_words - new_banks)
