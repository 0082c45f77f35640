"""Tests for the python -m repro.bench CLI."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.__main__ import REPORTS, main
from repro.bench.compare import baselines_dir


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in REPORTS:
            assert name in out

    def test_no_args_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_fast_reports_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        assert main(["table2", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 1" in out
        assert (tmp_path / "cli_table2.txt").exists()
        assert (tmp_path / "cli_fig1.txt").exists()

    def test_unknown_report_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_failed_check_exits_nonzero(self, capsys, tmp_path,
                                        monkeypatch):
        """A report whose own acceptance check fails still writes its
        text, then names the check and cell and exits 1."""
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        monkeypatch.setenv("FAULT_SEED", "3")
        faults = REPORTS["faults"]
        (section,) = faults.sections

        def cell(dataset, metric, seed, n_workers):
            return {"dataset": dataset, "metric": metric, "seed": seed,
                    "n_workers": n_workers, "n_tiles": 8, "n_faults": 2,
                    "n_retries": 1, "n_tile_splits": 0, "n_degraded": 0,
                    "faulty_seconds": 1e-3,
                    "identical": (metric, n_workers) != ("jaccard", 4)}

        monkeypatch.setitem(REPORTS, "faults", replace(
            faults, sections=[replace(section, cell=cell)]))
        assert main(["faults"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("DIVERGED") == 1
        assert ("faults: check 'identical' failed for dataset=movielens "
                "metric=jaccard seed=3 n_workers=4") in captured.err
        assert captured.err.count("FAILED") == 1
        assert "DIVERGED" in (tmp_path / "cli_faults.txt").read_text()


def _without_wall_seconds(value):
    if isinstance(value, dict):
        return {k: _without_wall_seconds(v) for k, v in value.items()
                if "wall_seconds" not in k}
    if isinstance(value, list):
        return [_without_wall_seconds(v) for v in value]
    return value


class TestRegistry:
    def test_fast_gated_reports_match_baselines(self, tmp_path,
                                                 monkeypatch):
        """Regenerated payloads equal the committed baselines once host
        wall time is removed (the byte-identity contract CI gates)."""
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
        names = ["mutate", "scale", "slo", "telemetry"]
        assert main(names) == 0
        for name in names:
            bench = REPORTS[name].bench
            got = json.loads((tmp_path / f"{bench}.json").read_text())
            want = json.loads((baselines_dir() / f"{bench}.json")
                              .read_text())
            assert _without_wall_seconds(got) == \
                _without_wall_seconds(want), bench

    def test_gated_reports_have_baselines_and_ci_coverage(self):
        """Every report with a BENCH_* payload has a committed baseline
        and is regenerated by CI's gate step, and nothing else is."""
        gated = {name: r.bench for name, r in REPORTS.items() if r.bench}
        baselines = {p.stem for p in baselines_dir().glob("BENCH_*.json")}
        assert set(gated.values()) == baselines

        ci = Path(__file__).resolve().parents[1] / ".github" / "workflows" \
            / "ci.yml"
        lines = [line.strip() for line in ci.read_text().splitlines()]
        step = lines.index("- name: Regenerate gated bench payloads")
        run = lines[step + 1]
        assert run.startswith("run:")
        command = run.split()
        regenerated = command[command.index("repro.bench") + 1:]
        assert sorted(regenerated) == sorted(gated)
