"""Brute-force nearest neighbors over the semiring primitive.

The paper's end-to-end benchmark path (§4.2): cuML's brute-force
``NearestNeighbors`` estimator "makes direct use of our primitive",
batching queries so the dense pairwise block never exceeds device memory.
This estimator mirrors that API (Figure 2, top snippet):

    nn = NearestNeighbors(n_neighbors=10, metric="manhattan").fit(X)
    distances, indices = nn.kneighbors(X)

Queries run through the execution-plan layer (:mod:`repro.plan`): one
:class:`~repro.plan.PairwisePlan` prepares the operands and caches row
norms exactly once, cuts the index side into ``batch_rows``-bounded,
memory-budgeted tiles, and a :class:`~repro.plan.PlanExecutor` folds each
finished tile through a streaming :class:`~repro.plan.TopKConsumer` —
replacing the old hand-rolled batch loop that re-prepared the query matrix
and recomputed its norms for every batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryPolicy
from repro.gpusim.specs import DeviceSpec, get_device
from repro.gpusim.stats import KernelStats
from repro.kernels.base import PairwiseKernel
from repro.obs import resolve_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.core.distances import DistanceMeasure, make_distance
from repro.plan.consumers import CallbackConsumer, TopKConsumer
from repro.plan.executor import PlanExecutor
from repro.plan.pairwise_plan import (
    PairwisePlan,
    PreparedOperand,
    build_pairwise_plan,
    prepare_operand,
)
from repro.sparse.convert import as_csr
from repro.sparse.csr import CSRMatrix

__all__ = ["NearestNeighbors", "KnnQueryReport"]


@dataclass
class KnnQueryReport:
    """Execution record of one :meth:`NearestNeighbors.kneighbors` call."""

    simulated_seconds: float = 0.0
    #: tiles executed (one per index-side batch times query-side bands)
    n_batches: int = 0
    stats: KernelStats = field(default_factory=KernelStats)
    #: concurrent tile workers the plan ran on
    n_workers: int = 1
    #: largest per-tile kernel workspace seen during the query
    peak_workspace_bytes: float = 0.0
    #: largest device footprint (tile output + workspace) resident at once
    peak_resident_bytes: float = 0.0
    #: what an untiled, full-block execution would have held resident
    monolithic_bytes: float = 0.0
    # ---- fault accounting (all zero/empty on a clean run) --------------
    #: transient launch retries the recovery policy absorbed
    n_retries: int = 0
    #: adaptive tile splits performed on workspace OOM
    n_tile_splits: int = 0
    #: planned tiles that finished on a degraded row-cache strategy
    degraded_tiles: tuple = ()
    #: structured :class:`~repro.faults.FaultEvent` log, in tile order
    fault_log: tuple = ()

    @property
    def n_faults(self) -> int:
        """Number of fault events observed during the query."""
        return len(self.fault_log)


class NearestNeighbors:
    """Exact brute-force k-NN for any catalogue (or custom) distance.

    Parameters
    ----------
    n_neighbors:
        Default k for :meth:`kneighbors`.
    metric:
        Distance name; aliases accepted. Extra parameters (e.g. Minkowski's
        ``p``) go in ``metric_params``.
    engine:
        Execution strategy for the pairwise block (see
        :func:`repro.kernels.available_engines`).
    device:
        Simulated device spec or name. Defaults to the engine's own device
        (Volta for named engines); an explicit value that conflicts with a
        kernel instance's spec raises
        :class:`~repro.errors.DeviceConfigError`.
    batch_rows:
        Index-side tile cap: the pairwise block is computed at most
        ``(n_queries, batch_rows)`` at a time and folded through a running
        top-k, bounding peak memory exactly like the paper's batched
        benchmark.
    n_workers:
        Concurrent tile workers (simulated streams). Results are identical
        for any worker count.
    memory_budget_bytes:
        Per-tile byte budget; tiles shrink below ``batch_rows`` if needed to
        fit. Defaults to a quarter of the device's global memory.
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy` engaged for every
        query plan: transient launches retry, OOMing tiles split, capacity
        overflows degrade the strategy ladder. Neighbor results are
        bit-identical with or without recovery; ``last_report`` carries the
        fault accounting.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` replaying a seeded
        fault schedule into every query execution (tests / chaos benches).
    trace:
        ``None`` (default), a :class:`~repro.obs.Tracer` shared across
        queries, or a path — each query then (re)writes a Chrome
        ``trace_event`` JSON file there for ``chrome://tracing`` / Perfetto.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` accumulating counters
        and histograms across every query this estimator runs.
    """

    def __init__(self, n_neighbors: int = 5, *, metric: str = "euclidean",
                 metric_params: Optional[dict] = None,
                 engine: Union[str, PairwiseKernel] = "hybrid_coo",
                 device: Union[str, DeviceSpec, None] = None,
                 batch_rows: int = 4096, n_workers: int = 1,
                 memory_budget_bytes: Optional[int] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 trace=None, metrics: Optional[MetricsRegistry] = None):
        if n_neighbors <= 0:
            raise ValueError("n_neighbors must be positive")
        if batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_neighbors = int(n_neighbors)
        self.metric = metric
        self.metric_params = dict(metric_params or {})
        self.engine = engine
        self.device = get_device(device) if isinstance(device, str) else device
        self.batch_rows = int(batch_rows)
        self.n_workers = int(n_workers)
        self.memory_budget_bytes = memory_budget_bytes
        self.recovery = recovery
        self.fault_injector = fault_injector
        self.tracer, self._trace_path = resolve_trace(trace)
        self.metrics = metrics
        self._fit_matrix: Optional[CSRMatrix] = None
        self._prepared: Optional[PreparedOperand] = None
        self._prepared_key = None
        self.last_report: Optional[KnnQueryReport] = None

    # ------------------------------------------------------------------
    def fit(self, x) -> "NearestNeighbors":
        """Index the rows of ``x``.

        Stored raw (metric pre-transforms such as Hellinger's √x are applied
        once, lazily, by :meth:`prepared_operands`) so the same fitted index
        can serve queries under any compatible metric.
        """
        self._fit_matrix = as_csr(x)
        self._prepared = None
        self._prepared_key = None
        return self

    def _measure(self) -> DistanceMeasure:
        return make_distance(self.metric, **self.metric_params)

    def prepared_operands(self) -> PreparedOperand:
        """The fitted matrix prepared for this estimator's metric, cached.

        The measure's value pre-transform and the expansion's row norms are
        computed on first use and reused by every subsequent query — and by
        :class:`~repro.serve.ShardedIndex`, which slices (never recomputes)
        them per shard. The cache is invalidated when ``metric`` /
        ``metric_params`` change or on re-``fit``.
        """
        self._check_fitted()
        key = (self.metric, tuple(sorted(self.metric_params.items())))
        if self._prepared is None or self._prepared_key != key:
            self._prepared = prepare_operand(self._fit_matrix,
                                             self._measure())
            self._prepared_key = key
        return self._prepared

    @property
    def n_samples_fit(self) -> int:
        self._check_fitted()
        return self._fit_matrix.n_rows

    def _check_fitted(self) -> None:
        if self._fit_matrix is None:
            raise ReproError("NearestNeighbors has not been fitted; call "
                             ".fit(X) first")

    def _build_plan(self, x) -> PairwisePlan:
        """One plan per query call: queries on the A side, the fitted index
        tiled along B in ``batch_rows`` bands (self-join when ``x`` is None,
        so preparation and norms happen once, not twice). The fitted side is
        always the cached :meth:`prepared_operands` — its transform and
        norms are computed once per fitted metric, not once per query."""
        fitted = self.prepared_operands()
        queries = None if x is None else as_csr(x)
        return build_pairwise_plan(
            fitted if queries is None else queries,
            None if queries is None else fitted,
            self._measure(), engine=self.engine, device=self.device,
            memory_budget_bytes=self.memory_budget_bytes,
            max_tile_rows_b=self.batch_rows, tracer=self.tracer)

    def _executor(self, plan) -> PlanExecutor:
        return PlanExecutor(plan, n_workers=self.n_workers,
                            recovery=self.recovery,
                            fault_injector=self.fault_injector,
                            tracer=self.tracer, metrics=self.metrics)

    def _record_report(self, plan, report) -> KnnQueryReport:
        self.last_report = KnnQueryReport(
            simulated_seconds=report.simulated_seconds,
            n_batches=report.n_tiles, stats=report.stats,
            n_workers=report.n_workers,
            peak_workspace_bytes=float(report.stats.workspace_bytes),
            peak_resident_bytes=float(report.peak_resident_bytes),
            monolithic_bytes=float(plan.monolithic_bytes),
            n_retries=report.n_retries,
            n_tile_splits=report.n_tile_splits,
            degraded_tiles=report.degraded_tiles,
            fault_log=report.fault_log)
        if self.tracer is not None and self._trace_path is not None:
            write_chrome_trace(self.tracer, self._trace_path)
        return self.last_report

    # ------------------------------------------------------------------
    def kneighbors(self, x=None, n_neighbors: Optional[int] = None,
                   return_distance: bool = True):
        """k nearest indexed rows for each query row.

        ``x=None`` queries the fitted matrix against itself (the paper's
        benchmark setup: "trains ... on the entire dataset and then queries
        the entire dataset").
        """
        self._check_fitted()
        if self._fit_matrix.n_rows == 0:
            raise ValueError("cannot query neighbors: NearestNeighbors was "
                             "fitted on an empty corpus (0 rows)")
        if n_neighbors is None:
            k = self.n_neighbors
        else:
            k = int(n_neighbors)
            if k <= 0:
                raise ValueError(
                    f"n_neighbors must be positive, got {n_neighbors!r}")
        k = min(k, self._fit_matrix.n_rows)

        plan = self._build_plan(x)
        consumer = TopKConsumer(k)
        report = self._executor(plan).execute(consumer)
        self._record_report(plan, report)

        distances, indices = report.value
        return (distances, indices) if return_distance else indices

    def radius_neighbors(self, x=None, radius: float = 1.0,
                         return_distance: bool = True):
        """All indexed rows within ``radius`` of each query row.

        Returns parallel lists (one entry per query) of index arrays and,
        when requested, distance arrays, each sorted by distance — the
        scikit-learn ``radius_neighbors`` contract. Tiles stream through a
        :class:`CallbackConsumer`, so memory stays bounded just like
        :meth:`kneighbors`.
        """
        self._check_fitted()
        if radius < 0:
            raise ValueError("radius must be non-negative")

        plan = self._build_plan(x)
        n_queries = plan.a.n_rows
        hits_idx = [[] for _ in range(n_queries)]
        hits_dist = [[] for _ in range(n_queries)]

        def fold(tile, block):
            rows, cols = np.nonzero(block <= radius)
            for r, c in zip(rows, cols):
                hits_idx[tile.a0 + r].append(tile.b0 + c)
                hits_dist[tile.a0 + r].append(block[r, c])

        report = self._executor(plan).execute(CallbackConsumer(fold))
        self._record_report(plan, report)

        indices, distances = [], []
        for r in range(n_queries):
            idx = np.asarray(hits_idx[r], dtype=np.int64)
            dist = np.asarray(hits_dist[r], dtype=np.float64)
            order = np.lexsort((idx, dist))
            indices.append(idx[order])
            distances.append(dist[order])
        return (distances, indices) if return_distance else indices

    def kneighbors_graph(self, x=None, n_neighbors: Optional[int] = None,
                         mode: str = "connectivity") -> CSRMatrix:
        """The k-NN graph as a CSR matrix (``connectivity`` or ``distance``).

        This is the "connectivities graph from bipartite graphs" objective
        the paper contrasts with square-graph sparse-linear-algebra work.
        """
        if mode not in ("connectivity", "distance"):
            raise ValueError("mode must be 'connectivity' or 'distance'")
        distances, indices = self.kneighbors(x, n_neighbors)
        n_queries, k = indices.shape
        indptr = np.arange(0, n_queries * k + 1, k, dtype=np.int64)
        data = (np.ones(n_queries * k) if mode == "connectivity"
                else distances.ravel())
        return CSRMatrix(indptr, indices.ravel(), data,
                         (n_queries, self._fit_matrix.n_rows))
