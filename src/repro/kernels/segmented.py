"""Warp-level segmented reduction (the ⊕ stage of Algorithm 3).

The COO SPMV's stream of ``⊗`` products is keyed by B's row ids, which are
sorted within the stream; each warp folds its 32 products with a segmented
scan and only the **segment leaders** issue a global atomic ⊕ — "bounding
the number of potential writes to global memory by the number of active
warps over each row of B" (§3.3).

:func:`warp_segmented_reduce` simulates this faithfully at warp
granularity (vectorized across warps): it returns both the numerically
exact per-key reduction and the number of atomic writes the schedule would
issue, which tests pin against the paper's bound.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.monoid import Monoid
from repro.errors import SemiringError

__all__ = ["warp_segmented_reduce", "segment_boundaries",
           "warp_segment_pairs"]

_UFUNCS = {"plus": np.add, "times": np.multiply, "min": np.minimum,
           "max": np.maximum}


def segment_boundaries(keys: np.ndarray) -> np.ndarray:
    """Indices where a new segment (key run) starts in a sorted key array."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(starts)


def warp_segment_pairs(starts: np.ndarray, n: int, warp_size: int) -> int:
    """Distinct (warp, segment) pairs of a stream of ``n`` elements whose
    segments begin at the sorted positions ``starts`` (the first at 0),
    issued ``warp_size`` elements per warp.

    A pair's first element opens a segment or a warp, so the pairs are the
    union of segment starts and warp starts, counted in ``O(segments)``.
    """
    if n == 0:
        return 0
    n_warps = -(-n // warp_size)
    return int(starts.size + n_warps
               - np.count_nonzero(starts % warp_size == 0))


def warp_segmented_reduce(keys: np.ndarray, values: np.ndarray,
                          reduce: Monoid, *, n_keys: int,
                          warp_size: int = 32,
                          ) -> Tuple[np.ndarray, int]:
    """⊕-reduce ``values`` by sorted ``keys``, the way warps would.

    Parameters
    ----------
    keys:
        Non-decreasing segment ids (B row indices in the SPMV), one per
        streamed element.
    values:
        The ⊗ products, parallel to ``keys``.
    reduce:
        The ⊕ monoid (must map to a numpy ufunc: plus/times/min/max).
    n_keys:
        Output length (number of B rows).
    warp_size:
        Lanes per warp; each chunk of this many elements is folded
        in-register and contributes one atomic per segment it touches.

    Returns
    -------
    (out, n_atomics):
        ``out[k]`` is the ⊕ over elements with key ``k`` (``id⊕`` for
        untouched keys); ``n_atomics`` counts the segment-leader writes —
        at most ``n_warps + n_segments`` and never more than one per
        (warp, segment) pair.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if keys.size != values.size:
        raise ValueError("keys and values must be parallel arrays")
    if keys.size and np.any(np.diff(keys) < 0):
        raise ValueError("keys must be non-decreasing (COO row-sorted)")
    try:
        ufunc = _UFUNCS[reduce.name]
    except KeyError:
        raise SemiringError(
            f"reduce monoid {reduce.name!r} has no ufunc mapping") from None

    out = np.full(n_keys, reduce.identity, dtype=np.float64)
    if keys.size == 0:
        return out, 0
    if keys.min() < 0 or keys.max() >= n_keys:
        raise ValueError(f"keys out of range [0, {n_keys})")

    # Exact reduction via reduceat over global segment starts.
    starts = segment_boundaries(keys)
    reduced = ufunc.reduceat(values, starts)
    ufunc.at(out, keys[starts], reduced)

    # Atomic count: one per (warp, segment) pair — a warp covering elements
    # [w*32, (w+1)*32) touches the segments present in that span.
    return out, warp_segment_pairs(starts, keys.size, warp_size)
