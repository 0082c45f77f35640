"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload generates its inputs from the seed (:meth:`Workload.setup`),
runs one *job* at a time (:meth:`Workload.job`) and checks the outputs of
every job it ran against an oracle computed outside the timed region
(:meth:`Workload.check`). All four are closed loops with one client; the
serve workloads replay a seeded arrival trace on the server's simulated
clock as fast as the host allows, so host time never changes batching and
every simulated number is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import NearestNeighbors, dist, pairwise_reference
from repro.bench.runner import BURST_BUCKETS_MS
from repro.datasets import load_dataset
from repro.obs import (
    SamplingPolicy,
    SLOMonitor,
    Telemetry,
    Tracer,
    priority_latency_objectives,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLObjective
from repro.serve import (
    AdmissionRejected,
    BackpressureController,
    MutableIndex,
    Server,
    ShardedIndex,
    heavy_tailed_trace,
)
from repro.sparse.ops import vstack

from hostspeed import Clock

K = 10
#: Dataset replicas at the repository's bench scales (4422 x 8574 and
#: 1650 x 1635 rows x columns).
MOVIELENS_SCALE = 64.0
SCRNA_SCALE = 40.0
#: Rows per oracle sample on the batch workloads.
ORACLE_ROWS = 64
#: One in this many serve requests is checked against the oracle.
ORACLE_STRIDE = 16
#: Latency samples a serve run needs for its p99 to have ten beyond it.
MIN_LATENCY_SAMPLES = 1000


@dataclass
class Job:
    """What one job did, as measured from outside the program."""

    #: the job's start and end on the workload's clock
    span: Tuple[float, float]
    #: simulated device seconds the job charged
    sim_s: float
    #: operations completed: query rows answered (batch workloads),
    #: requests answered plus writes applied (serve workloads)
    n_ops: int
    #: clock span of each request, from its start until its result was
    #: available
    req_spans: List[Tuple[float, float]]
    #: simulated ms per answered request
    sim_req_ms: List[float]
    #: clock span of each write call
    write_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: operations that raised an error other than a refusal
    errors: int = 0
    #: requests refused by the shed ladder or the admission gate
    refused: int = 0
    submitted: int = 0
    #: fingerprint of every output and simulated number, for the
    #: job-to-job and traced-vs-untraced identity checks
    fingerprint: Tuple = ()
    #: per-layer work counts read off the job's own reports
    layer_counts: Dict[str, float] = field(default_factory=dict)
    #: checkable samples: workload-specific tuples
    samples: list = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Seconds the job took, as the clock measured them."""
        return self.span[1] - self.span[0]


def dataset_properties(matrix) -> Dict[str, object]:
    """Shape, nnz and row-degree percentiles of a workload's corpus."""
    degrees = matrix.row_degrees()
    percentiles = {f"p{q}": float(np.percentile(degrees, q))
                   for q in (50, 90, 99)}
    return {"shape": list(matrix.shape), "nnz": int(matrix.nnz),
            "degree": {**percentiles, "max": int(degrees.max())}}


def replica(name: str, scale: float, seed: int):
    """The repository's bench replica of a paper dataset (its fixed
    generator seed), with rows shuffled by the workload seed: every seed
    gets the same rows, so timings differ across seeds only by row order
    and the parts of the workload the seed draws (traces, writes)."""
    matrix = load_dataset(name, scale=scale).matrix
    order = np.random.default_rng([seed, 0]).permutation(matrix.n_rows)
    return matrix.take_rows(order)


def _array_fingerprint(*arrays) -> Tuple:
    return tuple(a.tobytes() for a in arrays)


def _reference_topk(queries, corpus, metric: str, k: int) -> np.ndarray:
    """Sorted k smallest dense-reference distances per query row, with
    the corpus streamed in blocks so memory stays small."""
    q = queries.to_dense()
    best = np.full((q.shape[0], 0), np.inf)
    block = 256 if metric == "cosine" else 64
    for lo in range(0, corpus.n_rows, block):
        y = corpus.slice_rows(lo, min(lo + block, corpus.n_rows)).to_dense()
        if metric == "cosine":
            part = pairwise_reference(q, y, metric)
        else:
            part = np.vstack([pairwise_reference(q[i:i + 1], y, metric)
                              for i in range(q.shape[0])])
        best = np.sort(np.hstack([best, part]), axis=1)[:, :k]
    return best


class Workload:
    """Common shape of a workload; subclasses fill in the four hooks."""

    name = ""
    #: where every timed span is read; the end-to-end run sets a
    #: :class:`hostspeed.Timeline` that also probes host speed
    clock: Clock = Clock()

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def job(self) -> Job:
        raise NotImplementedError

    def warm_up(self) -> Job:
        """One untimed job, so lazy set-up and first-touch costs stay out
        of the timed ones."""
        return self.job()

    def enough(self, jobs: List[Job]) -> bool:
        """Whether ``jobs`` hold enough samples to end the run once its
        time is up."""
        return True

    def check(self, jobs: List[Job]) -> Tuple[int, int]:
        """``(operations checked, operations that failed)`` over ``jobs``;
        the first job is the reference the others must repeat bit for bit."""
        raise NotImplementedError

    def properties(self, jobs: List[Job]) -> Dict[str, object]:
        raise NotImplementedError


# ======================================================================
# batch workloads
# ======================================================================
class _BatchWorkload(Workload):
    """One job answers every row; it succeeds when its output matches the
    dense reference on a seeded row sample and repeats the first job."""

    metric = ""
    #: a run's median rests on at least this many jobs, even when they
    #: outlast ``--seconds`` (one ``dist_namm`` job takes ~5 s)
    min_jobs = 4

    def enough(self, jobs: List[Job]) -> bool:
        return len(jobs) >= self.min_jobs

    def _sample_rows(self, matrix) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 1])
        return np.sort(rng.choice(matrix.n_rows, size=ORACLE_ROWS,
                                  replace=False))

    def check(self, jobs: List[Job]) -> Tuple[int, int]:
        first = jobs[0]
        distances = first.samples[0]
        rows = self._sample_rows(self.matrix)
        want = _reference_topk(self.matrix.take_rows(rows), self.matrix,
                               self.metric, distances.shape[1])
        # Rounding scales with the row's distances (a self-distance can
        # come out as 1e-12 next to neighbours at 400), so the tolerance
        # is relative to each row's largest selected distance.
        scale = np.abs(want).max(axis=1, keepdims=True)
        ok = bool((np.abs(distances[rows] - want) <= 1e-9 * scale).all())
        failed = sum(1 for j in jobs
                     if j.errors or not ok
                     or j.fingerprint != first.fingerprint)
        return len(jobs), failed


class KnnBatch(_BatchWorkload):
    """The paper's §4.2 end-to-end query: every row's 10 cosine
    neighbours over the movielens replica, serial, observability off."""

    name = "knn_batch"
    metric = "cosine"
    scale = MOVIELENS_SCALE

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.matrix = replica("movielens", self.scale, seed)
        self.nn = NearestNeighbors(n_neighbors=K, metric=self.metric,
                                   engine="hybrid_coo").fit(self.matrix)
        self.nn.prepared_operands()

    def job(self) -> Job:
        start = self.clock.now()
        distances, indices = self.nn.kneighbors()
        span = (start, self.clock.now())
        report = self.nn.last_report
        sim = report.simulated_seconds
        return Job(span=span, sim_s=sim, n_ops=self.matrix.n_rows,
                   req_spans=[span], sim_req_ms=[sim * 1e3],
                   fingerprint=_array_fingerprint(distances, indices)
                   + (sim,),
                   samples=[distances])

    def properties(self, jobs: List[Job]) -> Dict[str, object]:
        return {"dataset": dataset_properties(self.matrix),
                "metric": self.metric, "k": K, "engine": "hybrid_coo"}


class DistNamm(_BatchWorkload):
    """A 4-device manhattan (NAMM) k-NN self-join of the scRNA replica:
    distributed plan with an auto-chosen partition, then execution on
    two worker threads."""

    name = "dist_namm"
    metric = "manhattan"
    scale = SCRNA_SCALE

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.matrix = replica("scrna", self.scale, seed)

    def job(self) -> Job:
        start = self.clock.now()
        # Called through the package so the per-layer shims see the call.
        plan = dist.build_distributed_plan(
            self.matrix, metric=self.metric, k=K, n_devices=4,
            partition="auto", interconnect="nvlink")
        self.clock.tick()
        report = dist.DistributedExecutor(plan, n_workers=2).execute()
        span = (start, self.clock.now())
        distances, indices = report.value
        sim = report.simulated_seconds
        return Job(span=span, sim_s=sim, n_ops=self.matrix.n_rows,
                   req_spans=[span], sim_req_ms=[sim * 1e3],
                   fingerprint=_array_fingerprint(distances, indices)
                   + (sim, report.comm_bytes_total),
                   samples=[distances],
                   layer_counts={"dist.comm_steps": report.n_comm_steps,
                                 "dist.comm_bytes": report.comm_bytes_total,
                                 "dist.sim_comm_s": report.comm_seconds},
                   extra={"partition": report.partition,
                          "grid": [report.grid_rows, report.grid_cols]})

    def properties(self, jobs: List[Job]) -> Dict[str, object]:
        return {"dataset": dataset_properties(self.matrix),
                "metric": self.metric, "k": K, "n_devices": 4,
                "interconnect": "nvlink",
                "partition": jobs[0].extra["partition"],
                "grid": jobs[0].extra["grid"]}


# ======================================================================
# serve workloads
# ======================================================================
def _batch_layer_counts(server: Server) -> Dict[str, float]:
    batches = server.batch_reports
    waits = [r.queue_wait_ms for r in server.request_reports]
    return {"serve.batches": len(batches),
            "serve.batch_rows_mean": (float(np.mean([b.n_rows
                                                     for b in batches]))
                                      if batches else 0.0),
            "serve.sim_queue_wait_ms_p50": (float(np.median(waits))
                                            if waits else 0.0)}


def _stamp(outstanding: list, done: list, now: float, version=None) -> None:
    """Move every resolved future from ``outstanding`` to ``done`` with
    its clock span and the corpus ``version`` it was answered on."""
    keep = []
    for entry in outstanding:
        future, t0, index = entry
        if future.done():
            done.append((index, future, (t0, now), version))
        else:
            keep.append(entry)
    outstanding[:] = keep


class _ServeWorkload(Workload):
    """Shared parts of the two serve workloads: the seeded trace and query
    blocks, result collection, and the oracle comparison. A request's
    latency is stamped the moment a call returns with its future resolved.
    Host-speed checkpoints are taken between calls, on the clock's
    cadence."""

    scale = MOVIELENS_SCALE
    #: requests in the untimed warm-up session
    warm_up_requests = 150
    #: micro-batch admission window on the simulated clock
    max_wait_ms = 0.002

    def warm_up(self) -> Job:
        return self.job(n_requests=self.warm_up_requests)

    def enough(self, jobs: List[Job]) -> bool:
        return sum(len(j.req_spans) for j in jobs) >= MIN_LATENCY_SAMPLES

    def _draw_requests(self, seed: int,
                       deadline_ms: Optional[float] = None) -> None:
        """The seeded arrival trace and each request's query block."""
        deadlines = ({p: deadline_ms for p in (0, 1, 2)}
                     if deadline_ms is not None else None)
        self.trace = heavy_tailed_trace(
            n_requests=self.n_requests, seed=seed,
            mean_gap_ms=self.mean_gap_ms, gap_sigma=1.4,
            diurnal_period_ms=300 * self.mean_gap_ms, diurnal_amplitude=0.9,
            rows_choices=(1, 2, 4), deadline_ms_by_priority=deadlines)
        starts = np.random.default_rng([seed, 2]).integers(
            0, self.matrix.n_rows - 4, size=len(self.trace))
        self.queries = [self.matrix.slice_rows(int(s), int(s) + t.n_rows)
                        for s, t in zip(starts, self.trace)]

    def _collect(self, done: list) -> Tuple[list, list, int]:
        """Answered results, the oracle's sample of them as ``(request,
        corpus version, distances)``, and the requests that failed."""
        answers, samples, errors = [], [], 0
        for index, future, _, version in done:
            try:
                result = future.result()
            except Exception:  # noqa: BLE001 - counted as a failed op
                errors += 1
                continue
            answers.append(result)
            if index % ORACLE_STRIDE == self.seed % ORACLE_STRIDE:
                samples.append((index, version, result.distances))
        return answers, samples, errors

    def _reference(self, sampled: Dict[object, List[int]]) -> Dict:
        """``{(version, request): distances}`` from an unsharded
        :class:`NearestNeighbors` over the corpus at that version."""
        raise NotImplementedError

    def check(self, jobs: List[Job]) -> Tuple[int, int]:
        sampled: Dict[object, List[int]] = {}
        for j in jobs:
            for i, version, _ in j.samples:
                sampled.setdefault(version, [])
                if i not in sampled[version]:
                    sampled[version].append(i)
        reference = self._reference(sampled)
        attempted = failed = 0
        for j in jobs:
            attempted += j.submitted + len(j.write_spans)
            failed += j.errors
            if j.fingerprint != jobs[0].fingerprint:
                failed += 1
            for i, version, distances in j.samples:
                # A degraded request answers its first k' < K neighbours.
                want = reference[(version, i)][:, :distances.shape[1]]
                if not np.array_equal(distances, want):
                    failed += 1
        return attempted, failed

    def properties(self, jobs: List[Job]) -> Dict[str, object]:
        job = jobs[0]
        rows = job.extra["batch_rows"]
        return {"dataset": dataset_properties(self.matrix),
                "metric": "cosine", "k": K,
                "requests_per_session": job.submitted,
                "mean_gap_ms": self.mean_gap_ms,
                "max_wait_ms": self.max_wait_ms,
                "batch_rows": {"mean": float(np.mean(rows)),
                               "p50": float(np.percentile(rows, 50)),
                               "p90": float(np.percentile(rows, 90)),
                               "max": int(max(rows)),
                               "n_batches": len(rows)}}


class ServeBurst(_ServeWorkload):
    """A bursty heavy-tailed trace of 1-4-row requests into 24-row
    micro-batches over a 2-shard degree-balanced index, with the shed
    ladder, SLO monitor, metrics, tracer and telemetry all on."""

    name = "serve_burst"
    #: median inter-arrival gap (simulated ms): shedding engages in the
    #: bursts but refuses only a minority of requests
    mean_gap_ms = 0.016
    #: one session per run: >= 1000 answered requests on every seed
    n_requests = 1500
    deadline_slack_ms = 0.05

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.matrix = replica("movielens", self.scale, seed)
        self.index = ShardedIndex.build(self.matrix, metric="cosine",
                                        n_shards=2,
                                        placement="degree_balanced")
        self._draw_requests(seed, self.deadline_slack_ms)

    def _server(self) -> Tuple[Server, SLOMonitor]:
        """The serve stack as the repository's burst bench cell runs it."""
        metrics = MetricsRegistry()
        for name in ("serve_latency_ms", "serve_priority_latency_ms",
                     "serve_queue_wait_ms"):
            metrics.histogram(name, buckets=BURST_BUCKETS_MS)
        monitor = SLOMonitor(
            metrics,
            (SLObjective(name="p99_latency_ms", kind="quantile",
                         metric="serve_latency_ms", q=0.99, threshold=0.015,
                         burn_alert=1.5,
                         description="overall p99; drives the shed ladder"),)
            + priority_latency_objectives({0: 0.08}, burn_alert=1.5),
            window_ms=0.05)
        controller = BackpressureController(
            monitor, objective="p99_latency_ms", poll_interval_ms=0.002)
        telemetry = Telemetry(policy=SamplingPolicy(seed=self.seed),
                              metrics=metrics)
        server = Server(self.index, max_batch_rows=24,
                        max_wait_ms=self.max_wait_ms,
                        backpressure=controller, metrics=metrics,
                        trace=Tracer(), telemetry=telemetry)
        return server, monitor

    def job(self, n_requests: Optional[int] = None) -> Job:
        clock = self.clock
        start = clock.now()
        server, monitor = self._server()
        outstanding: list = []
        done: list = []
        refused = errors = 0
        trace = self.trace[:n_requests] if n_requests else self.trace
        for i, t in enumerate(trace):
            if t.arrival_ms >= monitor.last_ms:
                monitor.observe(t.arrival_ms)
            t0 = clock.now()
            try:
                future = server.submit(self.queries[i], K,
                                       arrival_ms=t.arrival_ms,
                                       deadline_ms=t.deadline_ms,
                                       priority=t.priority)
                outstanding.append((future, t0, i))
            except AdmissionRejected:
                refused += 1
            except Exception:  # noqa: BLE001 - counted as a failed op
                errors += 1
            _stamp(outstanding, done, clock.now())
            clock.tick()
        server.drain()
        _stamp(outstanding, done, clock.now())
        final_ms = max((b.completion_ms for b in server.batch_reports),
                       default=monitor.last_ms)
        monitor.observe(max(final_ms, monitor.last_ms))
        span = (start, clock.now())

        answers, samples, failed = self._collect(done)
        reports = server.request_reports
        service_s = sum(b.service_ms for b in server.batch_reports) / 1e3
        return Job(
            span=span, sim_s=service_s, n_ops=len(answers),
            req_spans=[s for _, _, s, _ in done],
            sim_req_ms=[r.latency_ms for r in reports],
            errors=errors + failed + len(outstanding), refused=refused,
            submitted=len(trace),
            fingerprint=tuple(_array_fingerprint(r.distances, r.indices)
                              for r in answers) + (service_s, refused),
            layer_counts=_batch_layer_counts(server), samples=samples,
            extra={"batch_rows": [b.n_rows for b in server.batch_reports],
                   "degraded": sum(r.degraded for r in reports),
                   "deadline_missed": sum(r.deadline_missed
                                          for r in reports)})

    def _reference(self, sampled: Dict[object, List[int]]) -> Dict:
        requests = sampled.get(None, [])
        if not requests:
            return {}
        distances, _ = NearestNeighbors(n_neighbors=K, metric="cosine").fit(
            self.matrix).kneighbors(vstack([self.queries[i]
                                            for i in requests]))
        reference = {}
        lo = 0
        for i in requests:
            n = self.queries[i].n_rows
            reference[(None, i)] = distances[lo:lo + n]
            lo += n
        return reference

    def properties(self, jobs: List[Job]) -> Dict[str, object]:
        job = jobs[0]
        props = super().properties(jobs)
        props.update({"refused": job.refused,
                      "refused_share": job.refused / job.submitted,
                      "degraded": job.extra["degraded"],
                      "deadline_missed": job.extra["deadline_missed"]})
        return props


class ServeReadWrite(_ServeWorkload):
    """Reads through the serve path over a :class:`MutableIndex` built
    from 85% of the corpus, each followed by one write: an upsert of a
    held-out row under a new id, an overwrite of a live id, or a delete,
    with threshold-driven compaction. Observability and backpressure off."""

    name = "serve_readwrite"
    #: arrival rate and batching window that keep the simulated devices
    #: below saturation even at the diurnal peaks, so the simulated p99
    #: does not grow with the trace length
    mean_gap_ms = 0.001
    max_wait_ms = 0.01
    n_requests = 1000
    base_share = 0.85
    compact_threshold_rows = 32
    #: write mix: (upsert new id, overwrite live id, delete live id)
    write_mix = (0.4, 0.3, 0.3)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.matrix = replica("movielens", self.scale, seed)
        rng = np.random.default_rng([seed, 3])
        perm = rng.permutation(self.matrix.n_rows)
        n_base = int(self.base_share * self.matrix.n_rows)
        self.base_ids = np.sort(perm[:n_base])
        self.held_out = perm[n_base:]
        self.base_rows = self.matrix.take_rows(self.base_ids)
        self._draw_requests(seed)
        self.writes = self._write_stream(rng)
        self.index = self._build_index()

    def _write_stream(self, rng) -> List[Tuple[str, int, Optional[int]]]:
        """One ``(kind, id, source row)`` write per read, drawn against a
        model of the live id set so overwrites and deletes hit live ids."""
        live = list(int(i) for i in self.base_ids)
        next_id = self.matrix.n_rows
        writes = []
        kinds = rng.choice(3, size=len(self.trace), p=self.write_mix)
        for w, kind in enumerate(kinds):
            source = int(self.held_out[w % self.held_out.size])
            if kind == 0:
                writes.append(("upsert", next_id, source))
                live.append(next_id)
                next_id += 1
            elif kind == 1:
                gid = live[int(rng.integers(len(live)))]
                writes.append(("upsert", gid, source))
            else:
                gid = live.pop(int(rng.integers(len(live))))
                writes.append(("delete", gid, None))
        self.write_rows = {src: self.matrix.take_rows([src])
                           for kind, _, src in writes if kind == "upsert"}
        return writes

    def enough(self, jobs: List[Job]) -> bool:
        return (super().enough(jobs)
                and sum(len(j.write_spans) for j in jobs)
                >= MIN_LATENCY_SAMPLES)

    def _build_index(self) -> MutableIndex:
        return MutableIndex.build(
            self.base_rows, ids=self.base_ids, metric="cosine", n_shards=2,
            placement="degree_balanced",
            compact_threshold_rows=self.compact_threshold_rows)

    def job(self, n_requests: Optional[int] = None) -> Job:
        clock = self.clock
        start = clock.now()
        index = self.index
        server = Server(index, max_batch_rows=24,
                        max_wait_ms=self.max_wait_ms)
        outstanding: list = []
        done: list = []
        write_spans: List[Tuple[float, float]] = []
        errors = 0
        version = 0
        trace = self.trace[:n_requests] if n_requests else self.trace
        for i, t in enumerate(trace):
            t0 = clock.now()
            try:
                outstanding.append((server.submit(
                    self.queries[i], K, arrival_ms=t.arrival_ms,
                    priority=t.priority), t0, i))
            except Exception:  # noqa: BLE001 - counted as a failed op
                errors += 1
            _stamp(outstanding, done, clock.now(), version)
            kind, gid, source = self.writes[i]
            t0 = clock.now()
            try:
                if kind == "upsert":
                    index.upsert([gid], self.write_rows[source])
                else:
                    index.delete([gid])
                index.maybe_compact(t.arrival_ms)
            except Exception:  # noqa: BLE001 - counted as a failed op
                errors += 1
            now = clock.now()
            write_spans.append((t0, now))
            version += 1
            _stamp(outstanding, done, now, version)
            clock.tick()
        server.drain()
        _stamp(outstanding, done, clock.now(), version)
        span = (start, clock.now())
        # Every session starts from the same base generation, so its
        # simulated numbers do not depend on how many sessions ran before.
        self.index = self._build_index()

        answers, samples, failed = self._collect(done)
        compactions = [r for r in index.compaction_reports if not r.noop]
        sim_s = (sum(b.service_ms for b in server.batch_reports) / 1e3
                 + sum(r.simulated_seconds for r in compactions))
        return Job(
            span=span, sim_s=sim_s, n_ops=len(answers) + len(write_spans),
            req_spans=[s for _, _, s, _ in done],
            sim_req_ms=[r.latency_ms for r in server.request_reports],
            write_spans=write_spans,
            errors=errors + failed + len(outstanding),
            submitted=len(trace),
            fingerprint=tuple(_array_fingerprint(r.distances, r.indices)
                              for r in answers) + (sim_s,),
            layer_counts=_batch_layer_counts(server), samples=samples,
            extra={"batch_rows": [b.n_rows for b in server.batch_reports],
                   "compactions": len(compactions),
                   "live_rows_final": index.n_rows})

    def _live_sources(self, version: int) -> np.ndarray:
        """Source rows of the live ids, ascending by id, after ``version``
        writes: exactly the matrix a fresh fit would be given."""
        live = {int(i): int(i) for i in self.base_ids}
        for kind, gid, source in self.writes[:version]:
            if kind == "upsert":
                live[gid] = source
            else:
                live.pop(gid, None)
        return np.array([live[i] for i in sorted(live)], dtype=np.int64)

    def _reference(self, sampled: Dict[object, List[int]]) -> Dict:
        reference = {}
        for version, requests in sampled.items():
            nn = NearestNeighbors(n_neighbors=K, metric="cosine").fit(
                self.matrix.take_rows(self._live_sources(version)))
            for i in requests:
                reference[(version, i)] = nn.kneighbors(self.queries[i])[0]
        return reference

    def properties(self, jobs: List[Job]) -> Dict[str, object]:
        job = jobs[0]
        props = super().properties(jobs)
        writes = [kind for kind, _, _ in self.writes[:job.submitted]]
        props.update({"base_rows": int(self.base_ids.size),
                      "held_out_rows": int(self.held_out.size),
                      "writes_per_session": len(job.write_spans),
                      "deletes_per_session": writes.count("delete"),
                      "compactions_per_session": job.extra["compactions"],
                      "compact_threshold_rows": self.compact_threshold_rows,
                      "live_rows_final": job.extra["live_rows_final"]})
        return props


WORKLOADS = {w.name: w for w in (KnnBatch, ServeBurst, ServeReadWrite,
                                  DistNamm)}
