"""Command-line entry point: regenerate paper reports without pytest.

    python -m repro.bench table2 fig1          # selected reports
    python -m repro.bench --all                # everything (minutes)
    python -m repro.bench --list
    python -m repro.bench compare              # gate results vs baselines

Every report is one :class:`Report` entry in :data:`REPORTS`: parameter
grids, the cell function each grid point runs (a ``run_*_cell`` returning a
flat dict), the table columns rendered from those dicts, where the dicts go
in the ``BENCH_*.json`` payload, and the acceptance checks the cells must
pass. :func:`run_report` is the one loop behind all of them: it prints and
saves ``cli_<name>.txt`` under ``benchmarks/results/``, writes the payload,
and returns the failed checks, which make the CLI exit 1. The ``compare``
subcommand (see :mod:`repro.bench.compare`) diffs the payloads against the
committed ``benchmarks/baselines/`` and exits nonzero on regression.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.reporting import results_dir, save_json, save_report
from repro.bench.runner import (
    bench_dataset,
    run_ablation_cell,
    run_baseline_cell,
    run_burst_cell,
    run_cpu_cell,
    run_fault_cell,
    run_knn_cell,
    run_mutate_cell,
    run_plan_cell,
    run_profile_cell,
    run_scale_cell,
    run_serve_cell,
    run_slo_cell,
    run_telemetry_cell,
)
from repro.bench.tables import bold_min, format_seconds, render_table
from repro.core.distances import DOT_PRODUCT_DISTANCES, NAMM_DISTANCES
from repro.obs import write_folded

DATASETS = ("movielens", "scrna", "nytimes", "sec_edgar")

def _yes(ok) -> str:
    return "yes" if ok else "NO"


def grid(**axes) -> List[dict]:
    """Every combination of the axes' values, the last axis varying
    fastest."""
    return [dict(zip(axes, values))
            for values in itertools.product(*axes.values())]


@dataclass(frozen=True)
class Section:
    """One table of a report: ``cell(**params)`` for every grid point.

    Where a field takes a *source*, that is a cell key or a function of
    the cell.
    """

    cell: Callable[..., dict]
    #: keyword arguments per cell, or a function returning them at run
    #: time (default: one cell, no arguments)
    grid: object = ({},)
    title: str = ""
    #: ``(header, source)`` or ``(header, source, format)``; the format is
    #: a ``str.format`` pattern or a value -> text function (default str)
    columns: Sequence[tuple] = ()
    #: payload key of the per-cell records; ``None`` puts the section's one
    #: cell at the payload's top level
    key: Optional[str] = "cells"
    #: index the records by this cell key instead of listing them
    key_by: Optional[str] = None
    #: source of one cell's table rows (default: the cell is its one row)
    rows: object = None
    #: text appended under the table, from the section's cells
    footer: Optional[Callable[[List[dict]], str]] = None
    #: replaces the table: the section's text from its cells
    render: Optional[Callable[[List[dict]], str]] = None
    #: acceptance checks every cell must pass: ``(name, source)``
    checks: Sequence[tuple] = ()


@dataclass(frozen=True)
class Report:
    """One ``python -m repro.bench`` report: sections rendered in order
    (blank-line separated) into ``cli_<name>.txt``, and, with ``bench``,
    one ``<bench>.json`` payload."""

    name: str
    sections: Sequence[Section]
    bench: Optional[str] = None
    #: keys lifted from the first cell to the payload's top level (and
    #: dropped from every per-cell record)
    top: Tuple[str, ...] = ()
    #: further top-level payload keys, from the first section's cells
    extra: Optional[Callable[[List[dict]], dict]] = None
    #: writes the report's side artifacts from the first section's cells
    artifacts: Optional[Callable[[List[dict]], None]] = None


def _get(cell: dict, source):
    return source(cell) if callable(source) else cell[source]


def _format(cell: dict, column: tuple) -> str:
    header, source, *fmt = column
    value = _get(cell, source)
    if not fmt:
        return str(value)
    return fmt[0](value) if callable(fmt[0]) else fmt[0].format(value)


def _render(section: Section, cells: List[dict]) -> str:
    if section.render is not None:
        return section.render(cells)
    rows = [row for cell in cells
            for row in (_get(cell, section.rows) if section.rows
                        else [cell])]
    text = render_table([c[0] for c in section.columns],
                        [[_format(r, c) for c in section.columns]
                         for r in rows], title=section.title)
    return text + (section.footer(cells) if section.footer else "")


def _payload(report: Report, runs: List[List[dict]]) -> dict:
    """The ``BENCH_*.json`` payload; ``_``-prefixed keys never enter."""
    def record(cell, drop=report.top):
        return {k: v for k, v in cell.items()
                if not k.startswith("_") and k not in drop}

    payload = {key: runs[0][0][key] for key in report.top}
    for section, cells in zip(report.sections, runs):
        if section.key is None:
            payload.update(record(cells[0]))
        elif section.key_by is not None:
            drop = report.top + (section.key_by,)
            payload[section.key] = {c[section.key_by]: record(c, drop)
                                    for c in cells}
        else:
            payload[section.key] = [record(c) for c in cells]
    if report.extra is not None:
        payload.update(report.extra(runs[0]))
    return payload


def _label(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items()) or "the cell"


def run_report(report: Report) -> List[str]:
    """Run every section's grid, print and save the report text and its
    payload, and return one line per failed check and cell."""
    start = time.perf_counter()
    runs, failures = [], []
    for section in report.sections:
        cells = []
        for params in (section.grid() if callable(section.grid)
                       else section.grid):
            cells.append(section.cell(**params))
            failures += [f"{report.name}: check '{name}' failed for "
                         f"{_label(params)}"
                         for name, source in section.checks
                         if not _get(cells[-1], source)]
            print(f"  ... {report.name} {_label(params)} done",
                  file=sys.stderr)
        runs.append(cells)
    if report.artifacts is not None:
        report.artifacts(runs[0])
    content = "\n\n".join(_render(section, cells)
                           for section, cells in zip(report.sections, runs))
    elapsed = time.perf_counter() - start

    path = save_report(f"cli_{report.name}", content)
    print(content)
    print(f"[{report.name}: {elapsed:.1f}s, saved to {path}]")
    if report.bench is not None:
        json_path = save_json(report.bench, _payload(report, runs))
        print(f"[{report.name}: JSON saved to {json_path}]")
    print()
    return failures


# ---------------------------------------------------------------------------
# The registry

FAMILIES = {"dot": DOT_PRODUCT_DISTANCES, "non-trivial": NAMM_DISTANCES}
PAPER_SPEEDUP = {"dot": "28.78x", "non-trivial": "29.17x"}
FIG1_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


def _dataset_cell(dataset: str) -> dict:
    """Shape, density and degree quantiles of a bench replica next to the
    paper's Table 2 facts."""
    from repro.datasets.degree import degree_percentile
    from repro.datasets.synthetic import DATASET_PAPER_FACTS

    ds = bench_dataset(dataset)
    paper = DATASET_PAPER_FACTS[dataset]
    return {"dataset": dataset, "shape": ds.shape, "density": ds.density,
            "min_degree": ds.matrix.min_degree(),
            "max_degree": ds.matrix.max_degree(),
            "paper_shape": paper.shape, "paper_density": paper.density,
            **{f"p{int(q * 100)}": degree_percentile(ds.matrix, q)
               for q in FIG1_QUANTILES}}


def _table3_cell(group: str, metric: str) -> dict:
    cell = {"group": group, "metric": metric}
    for ds in DATASETS:
        cell[f"{ds} base"] = run_baseline_cell(ds, metric)[
            "simulated_seconds"]
        cell[f"{ds} RAFT"] = run_knn_cell(
            ds, metric, "hybrid_coo", row_cache="hash")["simulated_seconds"]
    return cell


def _winner(ds: str, side: int):
    """Table 3 column: one side of a (baseline, ours) pair, the faster
    starred."""
    def fmt(cell: dict) -> str:
        pair = [cell[f"{ds} base"], cell[f"{ds} RAFT"]]
        return bold_min(pair, [format_seconds(v) for v in pair])[side]
    return fmt


def _speedup_cell(group: str) -> dict:
    speeds = [run_cpu_cell(ds, metric)["simulated_seconds"]
              / run_knn_cell(ds, metric, "hybrid_coo",
                             row_cache="hash")["simulated_seconds"]
              for metric in FAMILIES[group] for ds in DATASETS]
    return {"group": group, "speedup": sum(speeds) / len(speeds),
            "paper": PAPER_SPEEDUP[group]}


def _bytes(b: float) -> str:
    return f"{b / 2**20:.1f} MiB" if b >= 2**20 else f"{b / 2**10:.1f} KiB"


def _fault_grid() -> List[dict]:
    """The chaos matrix; ``FAULT_SEED`` pins one seed (CI's sweep)."""
    seeds = ([int(os.environ["FAULT_SEED"])] if "FAULT_SEED" in os.environ
             else [0, 1, 2])
    return grid(dataset=("movielens",), metric=("cosine", "jaccard"),
                seed=seeds, n_workers=(1, 4))


#: The burst trace with the shed ladder off, then on: both ledgers must
#: reconcile, and the shedding arm must hold the priority-0 SLO with no
#: burn alert. The open-loop arm missing p0 is the expected contrast.
BURST_GRID = grid(backpressure=(False, True))
BURST_CHECKS: Sequence[tuple] = (
    ("reconciled", "reconciled"),
    ("shedding holds p0 (p0_ok, 0 p0 alerts)",
     lambda c: not c["backpressure"]
     or (c["p0_ok"] and c["p0_alerts"] == 0)),
)


def _folded(cell: dict) -> str:
    return f"profile_{cell['row_cache']}.folded"


def _write_folded(cells: List[dict]) -> None:
    """Each strategy's folded-stack flamegraph next to the report (drag
    into speedscope or feed to ``flamegraph.pl``)."""
    for c in cells:
        write_folded(c["_profile"], results_dir() / _folded(c))


def _shedding(on: bool) -> str:
    return "on" if on else "off"


def _slo_footer(cells: List[dict]) -> str:
    c = cells[0]
    return (f"\n\n{len(c['alerts'])} burn-rate alert(s); "
            f"{c['deadline_missed']}/{c['n_requests']} deadlines missed; "
            f"p99 {c['p99_latency_ms']:.3f} ms\n\n" + c["_report_text"])


#: (regime, n_cols, mean_degree) — the two column regimes the ablation
#: sweeps: "narrow" fits the dense row cache in shared memory; "wide"
#: exceeds it (32768 × 4 B > 96 KiB), so the dense candidate is gated out
#: and hash staging competes with nonzero splitting on its own.
ABLATION_REGIMES = (("narrow", 512, 128.0), ("wide", 32768, 768.0))

#: lognormal degree-skew levels swept per regime
ABLATION_SIGMAS = (0.5, 1.5, 2.5, 3.5)

ABLATION_METRICS = ("cosine", "manhattan")


def _fixed(label: str):
    return lambda c: (format_seconds(c["fixed_seconds"][label])
                      if label in c["fixed_seconds"] else "-")


#: Each telemetry invariant is both a row of the report's table and an
#: acceptance check.
TELEMETRY_CHECKS: Sequence[tuple] = (
    ("schema valid", "schema_valid"),
    ("events reconciled", "reconciled"),
    ("tail covers deadline misses", "tail_covers_deadline_missed"),
    ("exemplar chains exact", "exemplar_chain_exact"),
    ("exemplar buckets complete",
     lambda c: c["exemplar_buckets"] == c["exemplar_buckets_expected"]),
    ("events identical serial vs 4 workers", "events_identical"),
    ("sampling decisions byte-identical", "decisions_identical"),
    ("dist transfers reconciled", "dist_transfers_reconciled"),
)


def _telemetry_footer(cells: List[dict]) -> str:
    c = cells[0]
    return (f"\n\n{c['n_submissions']} submitted -> {c['resolved']} "
            f"resolved / {c['refused']} refused; {c['deadline_missed']} "
            f"deadline misses, all in the {c['sampled_total']}-trace tail "
            f"sample (of {c['n_traces']}); p99 threshold "
            f"{c['p99_threshold_ms']:.4f} ms\n\n" + c["_console_text"])


def _telemetry_artifacts(cells: List[dict]) -> None:
    """The rendered fleet console (text + JSON) and the retained
    (tail-sampled) trace events as JSONL, next to the report."""
    c = cells[0]
    out = results_dir()
    (out / "telemetry_console.txt").write_text(c["_console_text"] + "\n")
    with open(out / "telemetry_console.json", "w") as fh:
        json.dump(c["_snapshot"], fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "telemetry_sampled.jsonl", "w") as fh:
        for record in c["_sampled_records"]:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"  ... console + sampled-trace artifacts saved to {out}",
          file=sys.stderr)


#: device counts x interconnect tiers the distributed sweep covers
SCALE_DEVICES = (2, 4, 8)
SCALE_TIERS = ("nvlink", "pcie", "network")


def _scale_headline(cells: List[dict]) -> bool:
    """At 4+ devices the 2-D grid's modeled total is strictly below both
    1-D shapes on every tier."""
    return all(c["two_d_beats_one_d"] for c in cells if c["n_devices"] >= 4)


REPORTS: Dict[str, Report] = {r.name: r for r in (
    Report("table2", [Section(
        _dataset_cell, grid(dataset=DATASETS),
        title="Table 2 — datasets",
        columns=[
            ("dataset", "dataset"),
            ("size", lambda c: f"{c['shape'][0]}x{c['shape'][1]}"),
            ("density", "density", "{:.4%}"),
            ("min", "min_degree"), ("max", "max_degree"),
            ("paper size", lambda c: f"{c['paper_shape'][0] // 1000}Kx"
                                     f"{c['paper_shape'][1] // 1000}K"),
            ("paper density", "paper_density", "{:.4%}")])]),

    Report("fig1", [Section(
        _dataset_cell, grid(dataset=DATASETS),
        title="Figure 1 — degree quantiles",
        columns=[("dataset", "dataset")]
        + [(f"p{int(q * 100)}", f"p{int(q * 100)}", "{:.0f}")
           for q in FIG1_QUANTILES])]),

    Report("table3", [Section(
        _table3_cell,
        [{"group": g, "metric": m} for g, ms in FAMILIES.items()
         for m in ms],
        title="Table 3 — end-to-end kNN (simulated V100)",
        columns=[("group", "group"), ("distance", "metric")]
        + [(f"{ds} {name}", _winner(ds, side)) for ds in DATASETS
           for side, name in enumerate(("base", "RAFT"))])]),

    Report("speedup", [Section(
        _speedup_cell, grid(group=tuple(FAMILIES)),
        title="§4.2 — GPU speedup vs CPU",
        columns=[("family", "group"),
                 ("measured avg speedup", "speedup", "{:.2f}x"),
                 ("paper", "paper")])]),

    # Tiled vs monolithic execution plans: memory and modeled time.
    Report("plan", [Section(
        run_plan_cell,
        [{"dataset": ds, "metric": m, "n_tiles_target": t, "n_workers": w}
         for ds in DATASETS for m in ("cosine", "manhattan")
         for t, w in ((None, 1), (4, 1), (4, 4))],
        title="Execution plans — tiled vs monolithic (simulated V100)",
        columns=[("dataset", "dataset"), ("metric", "metric"),
                 ("mode", "mode"), ("tiles", "n_tiles"),
                 ("workers", "n_workers"),
                 ("peak resident", "peak_resident_bytes", _bytes),
                 ("vs full block", "resident_fraction", "{:.0%}"),
                 ("sim seconds", "simulated_seconds", format_seconds)])]),

    # Chaos matrix: every cell runs one k-NN query clean and under the
    # seeded chaos schedule with recovery engaged; the recovered
    # distances and indices must equal the clean twin's bit for bit.
    Report("faults", [Section(
        run_fault_cell, _fault_grid,
        title="Fault matrix — recovered runs vs clean runs",
        columns=[("dataset", "dataset"), ("metric", "metric"),
                 ("seed", "seed"), ("workers", "n_workers"),
                 ("tiles", "n_tiles"), ("faults", "n_faults"),
                 ("retries", "n_retries"), ("splits", "n_tile_splits"),
                 ("degraded", "n_degraded"),
                 ("sim seconds", "faulty_seconds", format_seconds),
                 ("vs clean", "identical",
                  lambda ok: "BIT-IDENTICAL" if ok else "DIVERGED")],
        checks=[("identical", "identical")])]),

    # Serving-layer profile: an open-loop stream per (micro-batch size,
    # shard count), then the burst trace with and without the shed
    # ladder; BENCH_serve.json is the CI serving-smoke artifact.
    Report("serve", [
        Section(
            partial(run_serve_cell, "movielens", "cosine", n_workers=2),
            grid(max_batch_rows=(8, 32, 128), n_shards=(1, 2, 4)),
            title="Serving — movielens/cosine, open-loop stream "
                  "(simulated time)",
            columns=[("batch rows", "max_batch_rows"),
                     ("shards", "n_shards"), ("batches", "n_batches"),
                     ("rows/batch", "mean_batch_rows", "{:.1f}"),
                     ("rows/s (sim)", "throughput_rows_per_s", "{:,.0f}"),
                     ("p50 ms", "p50_latency_ms", "{:.3f}"),
                     ("p99 ms", "p99_latency_ms", "{:.3f}")]),
        Section(
            run_burst_cell, BURST_GRID,
            title="Serving under load — heavy-tailed burst trace, shed "
                  "ladder off vs on (simulated time)",
            columns=[("shedding", "backpressure", _shedding),
                     ("submitted", "n_submissions"),
                     ("resolved", "resolved"), ("shed", "shed"),
                     ("rejected", "rejected"),
                     ("missed", "deadline_missed"),
                     ("p0 p99 ms", "p0_p99_latency_ms", "{:.4f}"),
                     ("p0 SLO ms", "p0_threshold_ms", "{:.4f}"),
                     ("p0 ok", "p0_ok", _yes),
                     ("p0 alerts", "p0_alerts"),
                     ("peak rung", "peak_shed_level"),
                     ("reconciled", "reconciled", _yes)],
            key="burst", checks=BURST_CHECKS)],
        bench="BENCH_serve", top=("dataset", "metric")),

    # A traced k-NN query per row-cache strategy: critical path,
    # per-category split, roofline table, folded-stack flamegraph.
    Report("profile", [Section(
        run_profile_cell, grid(row_cache=("hash", "bloom")),
        key="strategies", key_by="row_cache",
        render=lambda cells: "\n\n".join(
            f"== row_cache={c['row_cache']} (flamegraph: {_folded(c)}) "
            f"==\n{c['_text']}" for c in cells))],
        bench="BENCH_profile", top=("dataset", "metric"),
        artifacts=_write_folded),

    # SLO monitoring of a phased serve stream (healthy -> burst ->
    # recover): every tick's objective statuses and the burn-rate alerts,
    # then the priority-0 SLO under the burst trace, shed ladder off vs on.
    Report("slo", [
        Section(
            partial(run_slo_cell, "movielens", "cosine"),
            title="SLO monitor — movielens/cosine, phased stream "
                  "(simulated time)",
            columns=[("objective", "objective"),
                     ("tick ms", "at_ms", "{:.1f}"),
                     ("observed", "observed", "{:.3f}"),
                     ("ok", "ok", _yes),
                     ("burn", "burn_rate", "{:.2f}"),
                     ("budget left", "budget_remaining", "{:.1%}")],
            key=None, rows="statuses", footer=_slo_footer),
        Section(
            run_burst_cell, BURST_GRID,
            title="Priority-0 SLO under burst load — shed ladder off vs on",
            columns=[("shedding", "backpressure", _shedding),
                     ("p0 p99 ms", "p0_p99_latency_ms", "{:.4f}"),
                     ("p0 SLO ms", "p0_threshold_ms", "{:.4f}"),
                     ("p0 ok", "p0_ok", _yes),
                     ("p0 alerts", "p0_alerts"),
                     ("driver alerts", "driver_alerts"),
                     ("shed", "shed"), ("missed", "deadline_missed")],
            key="burst", checks=BURST_CHECKS)],
        bench="BENCH_slo"),

    # Engine ablation over skewed degree distributions: every fixed
    # engine configuration vs engine="auto" on a 96-row self-join.
    Report("ablation", [Section(
        run_ablation_cell,
        [{"regime": r, "n_cols": n, "mean_degree": d, "metric": m,
          "sigma": s}
         for r, n, d in ABLATION_REGIMES for m in ABLATION_METRICS
         for s in ABLATION_SIGMAS],
        title="Engine ablation — skewed self-joins, fixed configs vs auto "
              "(simulated V100)",
        columns=[("regime", "regime"), ("metric", "metric"),
                 ("sigma", "sigma", "{:.1f}"),
                 ("deg cv", "degree_cv", "{:.2f}"),
                 ("hybrid/dense", _fixed("hybrid/dense")),
                 ("hybrid/hash", _fixed("hybrid/hash")),
                 ("merge_path", _fixed("merge_path")),
                 ("auto choice",
                  lambda c: c["auto_engine"] + (
                      f"/{c['auto_row_cache']}" if c["auto_row_cache"]
                      else "")),
                 ("auto", "auto_seconds", format_seconds),
                 ("auto=best", "auto_matches_best", _yes),
                 ("identical", "identical",
                  lambda ok: "yes" if ok else "DIVERGED")],
        checks=[("auto_matches_best", "auto_matches_best"),
                ("identical", "identical")])],
        bench="BENCH_ablation",
        extra=lambda cells: {
            "n_rows": 96,
            "regimes": [{"regime": r, "n_cols": n, "mean_degree": d}
                        for r, n, d in ABLATION_REGIMES]}),

    # Mutable-index lifecycle: seeded mutation schedules, a forced
    # mid-compaction fault, a rebalance and a snapshot round-trip, each
    # checked against a fresh fit.
    Report("mutate", [Section(
        run_mutate_cell, grid(seed=(0, 1, 2)),
        title="Mutable index — seeded lifecycle replays vs fresh-fit "
              "oracle (simulated time)",
        columns=[("seed", "seed"), ("ops", "n_ops"),
                 ("ups/dels", lambda c: f"{c['n_upserts']}/"
                                        f"{c['n_deletes']}"),
                 ("compactions", "n_compactions"),
                 ("gen", "generation_final"),
                 ("live rows", "live_rows_final"),
                 ("compact sim s", "compaction_sim_seconds", "{:.4f}"),
                 ("imbalance",
                  lambda c: f"{c['imbalance_before_rebalance']:.2f}->"
                            f"{c['imbalance_after_rebalance']:.2f}"),
                 ("bit-identical", "identity_ok", _yes),
                 ("fault resume", "resume_ok", _yes),
                 ("snapshot", "snapshot_roundtrip_ok", _yes)],
        checks=[("identity_ok", "identity_ok"),
                ("resume_ok", "resume_ok"),
                ("snapshot_roundtrip_ok", "snapshot_roundtrip_ok")])],
        bench="BENCH_mutate", top=("metric", "n_shards")),

    # End-to-end request telemetry under burst load (DESIGN.md §16).
    Report("telemetry", [Section(
        run_telemetry_cell,
        title="Telemetry — burst trace, traced + sampled "
              "(simulated time)",
        columns=[("telemetry invariant", "invariant"),
                 ("holds", "ok", _yes)],
        key=None,
        rows=lambda c: [{"invariant": name, "ok": _get(c, check)}
                        for name, check in TELEMETRY_CHECKS],
        footer=_telemetry_footer, checks=TELEMETRY_CHECKS)],
        bench="BENCH_telemetry", artifacts=_telemetry_artifacts),

    # Distributed scaling sweep: device count x interconnect tier, each
    # cell planned with partition="auto" and executed.
    Report("scale", [Section(
        run_scale_cell, grid(n_devices=SCALE_DEVICES,
                             interconnect=SCALE_TIERS),
        title="Distributed scaling — skewed operands, auto partition "
              "(simulated devices)",
        columns=[("devices", "n_devices"), ("interconnect", "interconnect"),
                 ("auto choice", lambda c: f"{c['chosen_partition']} "
                                           f"({c['grid_rows']}x"
                                           f"{c['grid_cols']})"),
                 ("modeled total", "estimated_seconds", format_seconds),
                 ("comm (serial)", "comm_seconds", format_seconds),
                 ("comm bytes", "comm_bytes_total",
                  lambda b: f"{b / 2**10:.1f} KiB"),
                 ("est==exec", "estimate_equals_executed", _yes),
                 ("2d<1d", "two_d_beats_one_d",
                  lambda v: "-" if v is None else _yes(v))],
        footer=lambda cells: (
            "\n\n2-D strictly beats both 1-D shapes at >=4 devices on "
            f"every tier: {_yes(_scale_headline(cells))}"),
        checks=[("estimate_equals_executed", "estimate_equals_executed"),
                ("2-D beats both 1-D shapes at >=4 devices",
                 lambda c: c["n_devices"] < 4 or c["two_d_beats_one_d"])])],
        bench="BENCH_scale", top=("metric", "k"),
        extra=lambda cells: {
            "devices": list(SCALE_DEVICES),
            "interconnects": list(SCALE_TIERS),
            "headline": {"two_d_beats_one_d_at_4plus":
                         _scale_headline(cells)}}),
)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from repro.bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures "
                    "(or `compare` results against baselines).")
    parser.add_argument("reports", nargs="*", choices=[*REPORTS, []],
                        help="which reports to run")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--list", action="store_true",
                        help="list available reports")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record every plan/kernel execution and write "
                             "a Chrome trace-event JSON file here (open in "
                             "chrome://tracing or Perfetto)")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(REPORTS))
        return 0
    names = list(REPORTS) if args.all else args.reports
    if not names:
        parser.error("nothing to run; pass report names or --all")

    tracer = None
    previous_default = None
    if args.trace is not None:
        from repro.obs import Tracer, set_default_tracer

        tracer = Tracer()
        previous_default = set_default_tracer(tracer)
    failures: List[str] = []
    try:
        for name in names:
            failures += run_report(REPORTS[name])
    finally:
        if tracer is not None:
            from repro.obs import set_default_tracer, write_chrome_trace

            set_default_tracer(previous_default)
            trace_path = write_chrome_trace(tracer, args.trace)
            print(f"[trace: {len(tracer.spans)} spans written to "
                  f"{trace_path}]", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
