"""Row-wise top-k selection over distance blocks.

The end-to-end k-NN benchmark (paper §4.2) computes the pairwise block in
row batches and keeps only each query's k nearest — that is what lets the
primitive "scale to datasets where the dense pairwise distance matrix may
not otherwise fit in the memory of the GPU". :class:`TopKAccumulator`
maintains the running k-best across batches of *candidate columns*.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["select_topk", "suppress_pairs", "TopKAccumulator",
           "SUPPRESSED_ID"]

#: Sentinel global id for suppressed candidates (tombstoned or superseded
#: rows in a mutable index's older generations). Larger than any real row
#: id the library accepts, so under the accumulator's ``(value, id)``
#: lexicographic tie-break a masked entry — value forced to ``+inf`` —
#: can never displace a real candidate.
SUPPRESSED_ID = np.int64(2 ** 62)


def select_topk(distances: np.ndarray, k: int,
                ascending: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest (or largest) entries of each row, sorted.

    Returns ``(values, indices)`` of shape ``(n_rows, k)``. Ties are broken
    by index order (stable), so results are deterministic: the ids are
    those of ``np.argsort(keyed, axis=1, kind="stable")[:, :k]``, where
    ``keyed`` is the block (ascending) or its negation (descending). NaN
    ranks after ``+inf`` in both directions, and NaNs tie among themselves
    by lowest index. ``-0.0`` and ``0.0`` tie.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2:
        raise ValueError("select_topk expects a 2-D block")
    n_rows, n_cols = distances.shape
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n_cols)
    keyed = distances if ascending else -distances
    if k < n_cols:
        part_idx = _select_ids(keyed, k)
    else:
        part_idx = np.tile(np.arange(n_cols), (n_rows, 1))
    part_val = np.take_along_axis(keyed, part_idx, axis=1)
    # Sort by (value, index) for deterministic tie-breaks.
    order = np.lexsort((part_idx, part_val), axis=1)
    idx = np.take_along_axis(part_idx, order, axis=1)
    val = np.take_along_axis(part_val, order, axis=1)
    return (val if ascending else -val), idx


def _select_ids(keyed: np.ndarray, k: int) -> np.ndarray:
    """Ascending column ids of each row's ``k`` smallest keys (``k < n_cols``).

    A row's k-th smallest key is its *boundary*. Every entry strictly below
    the boundary is kept, and the ``k - count`` slots left go to the
    lowest-index entries equal to it: the ids a stable sort would keep,
    found without sorting. A NaN boundary (fewer than k non-NaN entries)
    keeps every non-NaN entry, then the lowest-index NaNs.
    """
    n_rows = keyed.shape[0]
    boundary = np.partition(keyed, k - 1, axis=1)[:, k - 1:k]
    sel = np.less(keyed, boundary, order="C")  # ravel() below is a view
    tie = keyed == boundary
    nan_rows = np.nonzero(np.isnan(boundary[:, 0]))[0]
    if nan_rows.size:
        nan = np.isnan(keyed[nan_rows])
        sel[nan_rows] = ~nan
        tie[nan_rows] = nan
    need = k - np.count_nonzero(sel, axis=1)
    # Flat positions of the ties, row-major: a row's ties are one run of
    # ``n_tie`` entries, and its first ``need`` ones fill the row.
    n_tie = np.count_nonzero(tie, axis=1)
    skip = (np.cumsum(n_tie) - n_tie) - (np.cumsum(need) - need)
    pos = np.arange(need.sum()) + np.repeat(skip, need)
    sel.ravel()[np.flatnonzero(tie)[pos]] = True
    return (np.flatnonzero(sel) % keyed.shape[1]).reshape(n_rows, k)


def suppress_pairs(values: np.ndarray, indices: np.ndarray,
                   suppressed: np.ndarray,
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Mask candidates whose global id is in ``suppressed``.

    This is the cross-generation merge entry point of the mutable index: a
    base shard selects its per-row top-k over *all* physical rows (with k
    widened by the number of suppressed ids the shard owns), then every
    candidate belonging to a tombstoned or superseded row is rewritten to
    ``(+inf, SUPPRESSED_ID)``. The arrays stay rectangular, so
    :meth:`TopKAccumulator.update_pairs` merges them unchanged, and the
    sentinel sorts after every real candidate — bit-identity of the merged
    result against a fresh fit of the live corpus follows from the same
    ``(value, id)`` lexicographic order the frozen path uses.

    Returns the inputs untouched (no copy) when nothing matches.
    """
    suppressed = np.asarray(suppressed, dtype=np.int64)
    if suppressed.size == 0:
        return values, indices
    mask = np.isin(indices, suppressed)
    if not mask.any():
        return values, indices
    values = np.array(values, dtype=np.float64, copy=True)
    indices = np.array(indices, dtype=np.int64, copy=True)
    values[mask] = np.inf
    indices[mask] = SUPPRESSED_ID
    return values, indices


class TopKAccumulator:
    """Running k-nearest merge across column batches of the distance block."""

    def __init__(self, n_rows: int, k: int):
        if n_rows < 0 or k <= 0:
            raise ValueError("need n_rows >= 0 and k > 0")
        self.n_rows = int(n_rows)
        self.k = int(k)
        self._values = np.full((n_rows, 0), np.inf)
        self._indices = np.zeros((n_rows, 0), dtype=np.int64)

    def update(self, distances: np.ndarray, col_offset: int = 0, *,
               offset_indices: Optional[np.ndarray] = None) -> None:
        """Merge a new batch of columns into the running best.

        The batch's local column ``c`` maps to global column
        ``col_offset + c`` — or, when ``offset_indices`` is given, to
        ``offset_indices[c]``. The latter is the cross-shard merge path: a
        shard's distance block is computed over shard-local rows, and
        ``offset_indices`` (the shard's sorted global row ids) remaps each
        local column back to its global identity so tie-breaks stay
        globally deterministic.
        """
        distances = np.asarray(distances, dtype=np.float64)
        if distances.ndim != 2:
            raise ValueError(
                f"update expects a 2-D batch, got {distances.ndim}-D")
        if distances.shape[0] != self.n_rows:
            raise ValueError(
                f"batch has {distances.shape[0]} rows, expected {self.n_rows}")
        if offset_indices is None:
            if col_offset < 0:
                raise ValueError(
                    f"col_offset must be non-negative, got {col_offset}")
        else:
            offset_indices = np.asarray(offset_indices, dtype=np.int64)
            if offset_indices.ndim != 1:
                raise ValueError("offset_indices must be 1-D")
            if offset_indices.shape[0] != distances.shape[1]:
                raise ValueError(
                    f"offset_indices has {offset_indices.shape[0]} entries "
                    f"but the batch has {distances.shape[1]} columns")
        k_local = min(self.k, distances.shape[1])
        if k_local == 0:
            return
        val, idx = select_topk(distances, k_local)
        idx = (idx + col_offset if offset_indices is None
               else offset_indices[idx])
        self._merge(val, idx)

    def update_pairs(self, values: np.ndarray, indices: np.ndarray) -> None:
        """Merge pre-selected ``(values, indices)`` candidates.

        This is the shard-merge entry point: each shard contributes its own
        per-row top-k (values plus *global* column ids) and the accumulator
        keeps the global k best, breaking ties by global id exactly as a
        single unsharded selection would.
        """
        values = np.asarray(values, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int64)
        if values.shape != indices.shape or values.ndim != 2:
            raise ValueError(
                f"values {values.shape} and indices {indices.shape} must be "
                f"equal-shaped 2-D arrays")
        if values.shape[0] != self.n_rows:
            raise ValueError(
                f"batch has {values.shape[0]} rows, expected {self.n_rows}")
        if values.shape[1] == 0:
            return
        self._merge(values, indices)

    def _merge(self, val: np.ndarray, idx: np.ndarray) -> None:
        self._values = np.concatenate([self._values, val], axis=1)
        self._indices = np.concatenate([self._indices, idx], axis=1)
        if self._values.shape[1] > self.k:
            self._compact()

    def _compact(self) -> None:
        # Tie-break on the *stored global* ids, not buffer position: shard
        # merges feed interleaved ids, where positional order lies.
        order = np.lexsort((self._indices, self._values), axis=1)[:, :self.k]
        self._values = np.take_along_axis(self._values, order, axis=1)
        self._indices = np.take_along_axis(self._indices, order, axis=1)

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``(distances, indices)`` of the k best seen so far."""
        if self._values.shape[1] > self.k:
            self._compact()
        order = np.lexsort((self._indices, self._values), axis=1)
        return (np.take_along_axis(self._values, order, axis=1),
                np.take_along_axis(self._indices, order, axis=1))
