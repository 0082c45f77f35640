"""§4.2 speedup experiment: simulated GPU vs modeled CPU.

The paper: "Compared to the CPU, we observed an average of 28.78x speedup
for the dot-product-based distances and 29.17x speedup for the distances
which require the non-annihilating product monoid." This bench reproduces
the two averages from the calibrated CPU model and our simulated kernel.
"""

import pytest

from repro.bench import render_table, run_knn_cell, save_report
from repro.bench.runner import run_cpu_cell
from repro.core.distances import DOT_PRODUCT_DISTANCES, NAMM_DISTANCES

DATASETS = ("movielens", "scrna", "nytimes", "sec_edgar")
PAPER_DOT_SPEEDUP = 28.78
PAPER_NAMM_SPEEDUP = 29.17


def _speedups(metrics):
    rows = []
    for metric in metrics:
        for ds in DATASETS:
            gpu = run_knn_cell(ds, metric, "hybrid_coo", row_cache="hash")
            cpu = run_cpu_cell(ds, metric)
            rows.append((metric, ds,
                         cpu["simulated_seconds"] / gpu["simulated_seconds"]))
    return rows


def test_speedup_vs_cpu(benchmark):
    def run():
        return (_speedups(DOT_PRODUCT_DISTANCES), _speedups(NAMM_DISTANCES))

    dot_rows, namm_rows = benchmark.pedantic(run, rounds=1, iterations=1)
    dot_avg = sum(r[2] for r in dot_rows) / len(dot_rows)
    namm_avg = sum(r[2] for r in namm_rows) / len(namm_rows)

    table_rows = [[m, ds, f"{s:.1f}x"] for m, ds, s in dot_rows + namm_rows]
    table_rows.append(["AVG dot-product", "(paper 28.78x)",
                       f"{dot_avg:.2f}x"])
    table_rows.append(["AVG non-trivial", "(paper 29.17x)",
                       f"{namm_avg:.2f}x"])
    report = render_table(["distance", "dataset", "GPU speedup vs CPU"],
                          table_rows,
                          title="§4.2 — simulated GPU speedup over modeled "
                                "CPU (sklearn-style brute force)")
    save_report("speedup_vs_cpu", report)

    # Shape claims: order-of-magnitude speedups in both families, with the
    # calibrated averages in the paper's neighborhood.
    assert dot_avg == pytest.approx(PAPER_DOT_SPEEDUP, rel=0.5)
    assert namm_avg == pytest.approx(PAPER_NAMM_SPEEDUP, rel=0.5)
    assert all(s > 3.0 for _, _, s in dot_rows + namm_rows)
