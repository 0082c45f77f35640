"""Algorithm 3: the load-balanced hybrid CSR+COO SPMV kernel.

The paper's winning design (§3.3): one thread block stages a row of A in
shared memory (dense when the dimensionality allows, hash-table-sparsified
otherwise), then all threads stream B's nonzeros — viewed through a COO row
index so the work is a flat, uniformly-partitioned stream — applying ⊗ to
each element against the staged row and folding results with a warp-level
segmented reduction keyed on B's row ids, with one atomic ⊕ per segment
leader.

NAMM semirings take **two passes** (§3.3.1): the first covers ``a ∩ b`` and
``a̅ ∩ b``; the second commutes A and B and skips the already-covered
intersection, supplying ``a ∩ b̅``.

The numeric result comes from :mod:`repro.kernels.functional` (identical
math, vectorized); this module's job is to *count* the schedule — loads,
shared-memory traffic, probe chains, bank conflicts, atomics — exactly as
the simulated device would see it, so the cost model can price the design
against the naive alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.semiring import Semiring
from repro.errors import KernelLaunchError
from repro.gpusim.cost_model import price_launch
from repro.gpusim.executor import simulate_launch
from repro.gpusim.memory import (
    bank_conflicts_for_offsets,
    coalesced_transactions,
    uncoalesced_transactions,
)
from repro.gpusim.specs import DeviceSpec, VOLTA_V100
from repro.gpusim.stats import KernelStats
from repro.kernels.base import KernelResult, PairwiseKernel, product_cost_profile
from repro.kernels.bloom_filter import BlockBloomFilter
from repro.kernels.functional import semiring_block
from repro.kernels.hash_table import ENTRY_BYTES, BlockHashTable
from repro.kernels.segmented import warp_segment_pairs
from repro.kernels.strategy import (
    DENSE_ITEM_BYTES,
    RowCacheStrategy,
    choose_strategy,
    hash_capacity,
    max_entries_per_block,
    plan_partitions,
)
from repro.obs.tracer import current_metrics, current_tracer
from repro.sparse.csr import CSRMatrix

__all__ = ["LoadBalancedCooKernel", "PassProfile"]


@dataclass
class PassProfile:
    """Diagnostics of one SPMV pass (exposed for the ablation benches)."""

    strategy: RowCacheStrategy
    n_blocks: int
    smem_per_block: int
    hit_rate: float
    mean_probe_per_lookup: float
    mean_probe_per_insert: float
    bloom_false_positive_rate: float = 0.0
    staged_entries: int = 0
    n_partitioned_rows: int = 0


def _total_intersections(a: CSRMatrix, b: CSRMatrix) -> float:
    """Exact count of co-occurring (row_a, row_b, column) triples, via the
    column-degree product identity (O(k), no pairwise work)."""
    k = a.n_cols
    ca = np.bincount(a.indices, minlength=k) if a.nnz else np.zeros(k)
    cb = np.bincount(b.indices, minlength=k) if b.nnz else np.zeros(k)
    return float(np.dot(ca.astype(np.float64), cb.astype(np.float64)))


class LoadBalancedCooKernel(PairwiseKernel):
    """The paper's primitive: hybrid CSR+COO SPMV with a staged row cache."""

    name = "hybrid_coo"
    row_cache_strategies = ("auto", "dense", "hash", "bloom")
    tunable = True

    def __init__(self, spec: DeviceSpec = VOLTA_V100, *,
                 row_cache: str = "auto", block_threads: int = 1024,
                 stats_sample_rows: int = 64,
                 stats_sample_queries: int = 32768,
                 rng_seed: int = 0):
        super().__init__(spec)
        if row_cache != "auto":
            row_cache = RowCacheStrategy(row_cache)
        self.row_cache = row_cache
        self.block_threads = int(block_threads)
        self.stats_sample_rows = int(stats_sample_rows)
        self.stats_sample_queries = int(stats_sample_queries)
        self._rng = np.random.default_rng(rng_seed)
        #: filled by :meth:`run`; one entry per executed pass
        self.last_profiles: list = []

    # ------------------------------------------------------------------
    def run(self, a: CSRMatrix, b: CSRMatrix, semiring: Semiring) -> KernelResult:
        self._check_inputs(a, b)
        self._fault_checkpoint()
        self._record_engine_selection()
        block = semiring_block(a, b, semiring)
        self.last_profiles = []

        result = self._simulate_pass(a, b, semiring, second_pass=False)
        if semiring.requires_union:
            second = self._simulate_pass(b, a, semiring, second_pass=True)
            result = KernelResult(block=block,
                                  stats=result.stats.merge(second.stats),
                                  seconds=result.seconds + second.seconds)
        else:
            result = KernelResult(block=block, stats=result.stats,
                                  seconds=result.seconds)
        # Output: the dense m x n block is written coalesced once.
        result.stats.gmem_transactions += coalesced_transactions(
            a.n_rows * b.n_rows, itemsize=4)
        return result

    # ------------------------------------------------------------------
    def estimate_seconds(self, a: CSRMatrix, b: CSRMatrix,
                         semiring: Semiring) -> float:
        """Dry run: identical pass counting, priced without launching.

        Runs on a :meth:`clone` so this instance's sampling RNG is left
        untouched — the executor likewise clones a pristine prototype per
        tile, so on a single-tile plan the estimate equals the executed
        kernel seconds exactly (the output-block write is recorded in the
        stats after pricing and never contributes seconds).
        """
        self._check_inputs(a, b)
        probe = self.clone()
        total = probe._estimate_pass(a, b, semiring, second_pass=False)
        if semiring.requires_union:
            total += probe._estimate_pass(b, a, semiring, second_pass=True)
        return total

    def _estimate_pass(self, staged: CSRMatrix, streamed: CSRMatrix,
                       semiring: Semiring, *, second_pass: bool) -> float:
        stats, prof = self._count_pass(staged, streamed, semiring,
                                       second_pass=second_pass)
        _, time = price_launch(
            self.spec, stats, grid_blocks=prof.n_blocks,
            block_threads=self.block_threads,
            smem_per_block=prof.smem_per_block, regs_per_thread=31)
        return time.seconds

    # ------------------------------------------------------------------
    def _resolve_strategy(self, n_cols: int) -> RowCacheStrategy:
        if self.row_cache == "auto":
            return choose_strategy(self.spec, n_cols)
        return self.row_cache

    def _count_pass(self, staged: CSRMatrix, streamed: CSRMatrix,
                    semiring: Semiring, *, second_pass: bool):
        """Count one SPMV pass: ``staged`` rows live in shared memory while
        ``streamed``'s nonzeros flow through the blocks.

        Pure counting — no launch, metrics, or trace emission — shared
        verbatim by :meth:`run` and the :meth:`estimate_seconds` dry run,
        which is what keeps autotuner estimates exact per engine.
        """
        spec = self.spec
        strategy = self._resolve_strategy(staged.n_cols)
        stats = KernelStats()
        alu_prod, special_prod = product_cost_profile(semiring)

        degrees = staged.row_degrees()
        plan = None
        if strategy is RowCacheStrategy.DENSE:
            smem = staged.n_cols * DENSE_ITEM_BYTES
            if smem > spec.smem_per_block_max_bytes:
                raise KernelLaunchError(
                    f"dense row cache needs {smem} B shared memory for "
                    f"k={staged.n_cols}; device allows "
                    f"{spec.smem_per_block_max_bytes} B — use the hash "
                    "strategy (paper §3.3.2)")
            n_blocks = staged.n_rows
            block_sizes = degrees
        else:
            cap = hash_capacity(spec) if strategy is RowCacheStrategy.HASH \
                else 0
            max_entries = max_entries_per_block(spec) if cap else \
                self._bloom_max_entries()
            plan = plan_partitions(degrees, max_entries=max_entries)
            n_blocks = plan.n_blocks
            block_sizes = plan.block_sizes
            smem = (cap * ENTRY_BYTES if strategy is RowCacheStrategy.HASH
                    else self._bloom_bits() // 8)

        nnz_s = streamed.nnz
        n_rows_s = streamed.n_rows
        total_hits = _total_intersections(staged, streamed)
        hit_rate = total_hits / max(1.0, float(staged.n_rows) * nnz_s)

        # --- staged-row load + cache construction (once per block) -------
        staged_elems = float(block_sizes.sum())
        stats.gmem_transactions += coalesced_transactions(
            int(staged_elems) * 2, itemsize=4)  # columns + values
        mean_probe_insert = 0.0
        mean_probe_lookup = 0.0
        bloom_fpr = 0.0
        if strategy is RowCacheStrategy.DENSE:
            stats.smem_accesses += staged_elems  # scatter values by column
        elif strategy is RowCacheStrategy.HASH:
            mean_probe_insert, mean_probe_lookup = self._sample_hash_probes(
                staged, streamed, plan)
            stats.smem_accesses += staged_elems  # one write per insert
            stats.probe_steps += staged_elems * mean_probe_insert
        else:  # BLOOM
            stats.smem_accesses += staged_elems * BlockBloomFilter.N_HASHES
            bloom_fpr = BlockBloomFilter.expected_fpr(
                int(degrees.mean()) if degrees.size else 0, self._bloom_bits())

        # --- the streamed sweep (every block reads all of streamed) ------
        lookups = float(n_blocks) * nnz_s
        stats.gmem_transactions += n_blocks * (
            coalesced_transactions(nnz_s, itemsize=4) * 3)  # row, col, val
        if strategy is RowCacheStrategy.DENSE:
            stats.smem_accesses += lookups
            stats.bank_conflicts += self._sample_bank_conflicts(streamed) \
                * n_blocks
        elif strategy is RowCacheStrategy.HASH:
            stats.smem_accesses += lookups
            stats.probe_steps += lookups * mean_probe_lookup
        else:  # BLOOM: 2 bit tests; hits + false positives binary-search
            stats.smem_accesses += lookups * BlockBloomFilter.N_HASHES
            mean_deg = float(degrees.mean()) if degrees.size else 0.0
            search_steps = BlockBloomFilter.binary_search_steps(
                int(mean_deg))
            positives = lookups * min(1.0, hit_rate + bloom_fpr)
            stats.gmem_transactions += uncoalesced_transactions(
                int(positives * search_steps))
            stats.uncoalesced_loads += positives * search_steps
            stats.divergent_branches += positives

        # --- ⊗ application + segmented reduction -------------------------
        if second_pass:
            # skip id⊗ for already-covered intersections (§3.3.1): only the
            # misses produce work for ⊕.
            productive = max(0.0, lookups - total_hits)
        else:
            productive = lookups
        stats.alu_ops += productive * alu_prod
        stats.special_ops += productive * special_prod
        stats.alu_ops += lookups * 2.0  # segmented scan compare+fold
        # Segment-leader atomics: exactly one per (warp, streamed row) pair
        # — every block sees the same stream, so count once and multiply.
        stats.atomics += n_blocks * self._atomics_per_block(streamed)

        # Our primitive's device workspace is nnz(B) (paper §4.3).
        stats.workspace_bytes = max(stats.workspace_bytes, nnz_s * 4.0)

        prof = PassProfile(
            strategy=strategy, n_blocks=int(n_blocks),
            smem_per_block=int(smem), hit_rate=hit_rate,
            mean_probe_per_lookup=mean_probe_lookup,
            mean_probe_per_insert=mean_probe_insert,
            bloom_false_positive_rate=bloom_fpr,
            staged_entries=int(staged_elems),
            n_partitioned_rows=(plan.n_partitioned_rows if plan is not None
                                else 0))
        return stats, prof

    def _simulate_pass(self, staged: CSRMatrix, streamed: CSRMatrix,
                       semiring: Semiring, *, second_pass: bool) -> KernelResult:
        """One counted pass, launched for real (metrics + trace spans)."""
        stats, prof = self._count_pass(staged, streamed, semiring,
                                       second_pass=second_pass)
        self.last_profiles.append(prof)

        tracer = current_tracer()
        if not tracer.enabled:
            launch = simulate_launch(
                self.spec, stats, grid_blocks=prof.n_blocks,
                block_threads=self.block_threads,
                smem_per_block=prof.smem_per_block,
                regs_per_thread=31)  # paper: "our design uses less than 32"
            return KernelResult(block=np.empty(0), stats=launch.stats,
                                seconds=launch.seconds)

        # Traced path: the pass span wraps the launch (so the gpusim.launch
        # event lands on it) and records the strategy decision and staging
        # work as child spans.
        with tracer.span("kernel.pass2" if second_pass else "kernel.pass1",
                         "kernel") as pspan:
            with tracer.span("strategy.select", "kernel") as sspan:
                sspan.annotate(strategy=prof.strategy.value,
                               auto=self.row_cache == "auto",
                               n_cols=staged.n_cols, engine=self.name)
            with tracer.span("rowcache.stage", "kernel") as rspan:
                rspan.annotate(staged_entries=prof.staged_entries,
                               n_blocks=prof.n_blocks,
                               smem_per_block=prof.smem_per_block,
                               mean_probe_per_insert=round(
                                   prof.mean_probe_per_insert, 4),
                               bloom_false_positive_rate=round(
                                   prof.bloom_false_positive_rate, 6))
            launch = simulate_launch(
                self.spec, stats, grid_blocks=prof.n_blocks,
                block_threads=self.block_threads,
                smem_per_block=prof.smem_per_block, regs_per_thread=31)
            pspan.set_sim_seconds(launch.seconds)
            pspan.annotate(strategy=prof.strategy.value,
                           n_blocks=prof.n_blocks,
                           hit_rate=round(prof.hit_rate, 6),
                           mean_probe_per_lookup=round(
                               prof.mean_probe_per_lookup, 4),
                           n_partitioned_rows=prof.n_partitioned_rows)
        return KernelResult(block=np.empty(0), stats=launch.stats,
                            seconds=launch.seconds)

    def _atomics_per_block(self, streamed: CSRMatrix) -> float:
        """Segment-leader atomics one block issues over the full stream.

        The stream is the streamed matrix's nonzeros in COO row order; a
        warp's chunk issues one atomic per distinct row it covers (§3.3:
        writes bounded by the active warps over each row).
        """
        starts = streamed.indptr[:-1][streamed.row_degrees() > 0]
        return float(warp_segment_pairs(starts, streamed.nnz,
                                        self.spec.warp_size))

    # ------------------------------------------------------------------
    def _bloom_bits(self) -> int:
        """Bloom bit budget: the full-occupancy shared-memory allowance."""
        blocks_needed = max(1, self.spec.max_warps_per_sm * self.spec.warp_size
                            // self.spec.max_threads_per_block)
        return (self.spec.smem_per_sm_bytes // blocks_needed) * 8

    def _bloom_max_entries(self) -> int:
        # Keep the expected FPR modest: <= bits / 10 entries.
        return max(1, self._bloom_bits() // 10)

    def _sample_hash_probes(self, staged: CSRMatrix, streamed: CSRMatrix,
                            plan) -> tuple:
        """Simulate real Murmur/linear-probe behaviour on sampled blocks."""
        n_blocks = plan.n_blocks
        if n_blocks == 0 or streamed.nnz == 0:
            return 0.0, 0.0
        sample_ids = np.unique(np.linspace(
            0, n_blocks - 1, num=min(self.stats_sample_rows, n_blocks),
            dtype=np.int64))
        queries = streamed.indices
        if queries.size > self.stats_sample_queries:
            queries = self._rng.choice(queries, size=self.stats_sample_queries,
                                       replace=False)
        cap = hash_capacity(self.spec)
        total_ins = total_ins_probes = 0
        total_q = total_q_probes = 0
        block_starts = self._block_entry_starts(staged, plan)
        load_factor_hist = current_metrics().histogram("hash_load_factor")
        for t in sample_ids:
            row = int(plan.block_rows[t])
            size = int(plan.block_sizes[t])
            lo = int(block_starts[t])
            cols = staged.indices[lo:lo + size]
            vals = staged.data[lo:lo + size]
            table = BlockHashTable(cap)
            report = table.build(cols, vals)
            load_factor_hist.observe(table.load_factor)
            total_ins += max(1, report.n_inserted)
            total_ins_probes += report.probe_steps
            _, _, probes = table.lookup(queries)
            total_q += queries.size
            total_q_probes += probes
        return (total_ins_probes / max(1, total_ins),
                total_q_probes / max(1, total_q))

    @staticmethod
    def _block_entry_starts(staged: CSRMatrix, plan) -> np.ndarray:
        """Global offset of each block's first staged nonzero.

        Blocks of the same row are consecutive in the plan, so each block's
        offset within its row is the running size sum since the row's first
        block.
        """
        if plan.n_blocks == 0:
            return np.empty(0, dtype=np.int64)
        cum = np.cumsum(plan.block_sizes) - plan.block_sizes
        first_of_row = np.ones(plan.n_blocks, dtype=bool)
        first_of_row[1:] = plan.block_rows[1:] != plan.block_rows[:-1]
        idx = np.arange(plan.n_blocks, dtype=np.int64)
        first_idx = np.maximum.accumulate(np.where(first_of_row, idx, 0))
        offset_in_row = cum - cum[first_idx]
        return staged.indptr[plan.block_rows] + offset_in_row

    def _sample_bank_conflicts(self, streamed: CSRMatrix) -> float:
        """Estimate bank-conflict cycles of dense-cache lookups per block."""
        if streamed.nnz == 0:
            return 0.0
        n = min(streamed.nnz, 32 * 2048)
        sample = streamed.indices[:n]
        conflicts = bank_conflicts_for_offsets(
            sample * DENSE_ITEM_BYTES, warp_size=self.spec.warp_size,
            n_banks=self.spec.smem_banks, itemsize=DENSE_ITEM_BYTES)
        return conflicts * (streamed.nnz / n)
