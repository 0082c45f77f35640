"""Host wall-clock benchmark of ``repro``: end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload knn_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` times jobs with nothing wrapped and prints the end-to-end
metrics in reference seconds: host seconds scaled by a host-speed probe
(``perfbench/hostspeed.py``). ``--trace 1`` alternates untraced jobs with
jobs run under the per-layer timing shims, and prints the per-layer
metrics in host seconds as measured. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give the workload's property record
and the metrics that apply to one workload only. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

# One process, at most two threads (the dist workload's two workers):
# keep BLAS single-threaded before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up is repeated at least this many times, and for at least this
#: many seconds, per run; ``setup_s`` is the median.
SETUP_REPEATS = 15
SETUP_SECONDS = 1.0


def _import_workloads():
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no repro package under {SRC}; run "
                         f"from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def percentile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[
        int(q) - 1]) if len(values) > 1 else float(values[0])


def run_jobs(workload, seconds: float, timeline) -> list:
    """Jobs back to back until ``seconds`` have passed and the workload
    has its minimum sample; at least one job, each followed by a
    host-speed checkpoint."""
    jobs = []
    start = time.perf_counter()
    while (not jobs or time.perf_counter() - start < seconds
           or not workload.enough(jobs)):
        jobs.append(workload.job())
        timeline.checkpoint()
    return jobs


def _plain(value):
    """JSON fallback for numpy scalars in the property record."""
    return value.item()


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float):
    import hostspeed

    timeline = hostspeed.Timeline()
    workload.clock = timeline
    setup_spans = []
    while (len(setup_spans) < SETUP_REPEATS
           or sum(b - a for a, b in setup_spans) < SETUP_SECONDS):
        timeline.tick()
        start = timeline.now()
        workload.setup(seed)
        setup_spans.append((start, timeline.now()))
    workload.warm_up()
    timeline.checkpoint()
    jobs = run_jobs(workload, seconds, timeline)
    attempted, failed = workload.check(jobs)

    def seconds_of(spans):
        return [timeline.seconds(*span) for span in spans]

    walls = seconds_of(j.span for j in jobs)
    req_ms = [s * 1e3 for s in seconds_of(s for j in jobs
                                           for s in j.req_spans)]
    sim_req_ms = [ms for j in jobs for ms in j.sim_req_ms]
    n_ops = sum(j.n_ops for j in jobs)
    metrics = {
        "setup_s": _metric(statistics.median(seconds_of(setup_spans)), "s"),
        "job_s_p50": _metric(statistics.median(walls), "s"),
        "sim_job_s": _metric(statistics.median(j.sim_s for j in jobs), "s"),
        "ops_per_s": _metric(n_ops / sum(walls), "1/s"),
        "req_ms_p50": _metric(statistics.median(req_ms), "ms"),
        "req_ms_p95": _metric(percentile(req_ms, 95), "ms"),
        "sim_req_ms_p99": _metric(percentile(sim_req_ms, 99), "ms"),
    }
    unscaled_walls = [j.wall_s for j in jobs]
    unscaled_req_ms = [(b - a) * 1e3 for j in jobs for a, b in j.req_spans]
    notes = {
        "jobs": len(jobs), "requests": len(req_ms),
        "setup_repeats": len(setup_spans),
        "req_ms_p99": percentile(req_ms, 99),
        "failed_share": failed / attempted, "failed_share_base": attempted,
        "host_speed": {
            "checkpoints": len(timeline.probes),
            "probe_ms_p50": statistics.median(timeline.probes) * 1e3,
            "scale": timeline.scale(),
            "probe_spread": timeline.speed_spread(),
            "unscaled_job_s_p50": statistics.median(unscaled_walls),
            "unscaled_ops_per_s": n_ops / sum(unscaled_walls),
            "unscaled_req_ms_p50": statistics.median(unscaled_req_ms),
        },
    }
    write_ms = [s * 1e3 for s in seconds_of(s for j in jobs
                                             for s in j.write_spans)]
    if write_ms:
        notes.update(write_ms_p50=statistics.median(write_ms),
                     write_ms_p99=percentile(write_ms, 99),
                     writes=len(write_ms))
    submitted = sum(j.submitted for j in jobs)
    if workload.name == "serve_burst":
        notes.update(refused_share=sum(j.refused for j in jobs) / submitted,
                     refused_share_base=submitted)
    return metrics, notes, attempted, failed, jobs


def per_layer(workload, seed: int, seconds: float):
    import layers

    workload.setup(seed)
    workload.warm_up()
    # Untraced and traced jobs alternate, so host drift during the run
    # weighs on both sides of trace.overhead_share alike; each side holds
    # the end-to-end run's minimum sample.
    tracer = layers.LayerTracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while (not traced or time.perf_counter() - start < seconds
           or not (workload.enough(untraced) and workload.enough(traced))):
        untraced.append(workload.job())
        with tracer:
            traced.append(workload.job())
    # check() fails every job whose outputs or simulated numbers differ
    # from the first untraced job's, so tracing may not change any.
    attempted, failed = workload.check(untraced + traced)

    n = len(traced)
    self_s = {k: v / n for k, v in tracer.self_seconds().items()}
    calls = {k: v / n for k, v in tracer.calls().items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    wall = sum(j.wall_s for j in traced) / n
    untraced_wall = statistics.median(j.wall_s for j in untraced)
    job_counts = traced[0].layer_counts
    rows = counts.get("neighbors.topk.select.rows", 0.0)
    ties = counts.get("neighbors.topk.tie_rows", 0.0)

    m = {}
    for layer in layers.LAYERS:
        m[f"{layer}.self_s"] = _metric(self_s[layer], "s")
    for layer in ("plan.build", "kernels.numerics", "gpusim.bank_conflicts",
                  "neighbors.topk.select", "serve.mutable.write",
                  "serve.mutable.compact", "obs.telemetry", "obs.metrics",
                  "obs.tracer"):
        m[f"{layer}.calls"] = _metric(calls[layer], "count")
    for name in ("plan.tiles", "kernels.numerics.cells",
                 "gpusim.bank_conflicts.offsets", "core.expansion.cells",
                 "neighbors.topk.select.rows", "serve.mutable.compact.rows"):
        m[name] = _metric(counts.get(name, 0.0), "count")
    m["neighbors.topk.tie_row_share"] = _metric(ties / rows if rows else 0.0,
                                                "ratio")
    for name, unit in (("serve.batches", "count"),
                       ("serve.batch_rows_mean", "count"),
                       ("serve.sim_queue_wait_ms_p50", "ms"),
                       ("dist.comm_steps", "count"),
                       ("dist.comm_bytes", "B"),
                       ("dist.sim_comm_s", "s")):
        m[name] = _metric(float(job_counts.get(name, 0.0)), unit)
    m["unattributed.self_s"] = _metric(wall - sum(self_s.values()), "s")
    m["trace.wall_s"] = _metric(wall, "s")
    m["trace.overhead_share"] = _metric(
        (statistics.median(j.wall_s for j in traced) - untraced_wall)
        / untraced_wall, "ratio")
    notes = {"untraced_jobs": len(untraced), "traced_jobs": n,
             "spans": len(tracer.spans),
             "tie_rows_base": rows}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{seed}.trace.json"
    path.write_text(json.dumps(tracer.chrome_trace()))
    notes["chrome_trace"] = str(path.relative_to(HERE.parent))
    return m, notes, attempted, failed, untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    run = per_layer if args.trace else end_to_end
    metrics, notes, attempted, failed, jobs = run(workload, args.seed,
                                                  args.seconds)
    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    print("properties " + json.dumps(workload.properties(jobs),
                                     sort_keys=True, default=_plain))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
