"""The SLO-burn shed ladder: rung walking, degradation, and the
with/without-backpressure contrast on the heavy-tailed burst trace."""

import pytest

from repro.obs import MetricsRegistry, SLOMonitor
from repro.obs.slo import SLObjective
from repro.serve import (
    DEFAULT_SHED_LADDER,
    AdmissionRejected,
    BackpressureController,
    ServeRequest,
    Server,
    ShardedIndex,
    ShedRung,
)
from repro.testing import DEFAULT_SEED, random_csr, seeded_rng, skewed_csr

K = 6


def req(priority, k=K, rid=0):
    return ServeRequest(request_id=rid, queries=None, n_neighbors=k,
                       n_rows=1, arrival_ms=0.0, priority=priority)


def ratio_monitor(metrics, threshold=0.1, window_ms=10.0):
    """A monitor whose burn rate the test drives via two counters."""
    return SLOMonitor(
        metrics,
        [SLObjective(name="err", kind="ratio", numerator="bad",
                     denominator="total", threshold=threshold)],
        window_ms=window_ms)


class TestLadderWalk:
    def drive(self, controller, metrics, bad, total, at_ms):
        if bad:
            metrics.counter("bad").inc(bad)
        metrics.counter("total").inc(total)
        controller.tick(at_ms)

    def test_walks_up_and_back_down(self):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)   # allowed bad fraction 0.1
        ctl = BackpressureController(monitor, poll_interval_ms=0.0)
        assert ctl.level == 0
        # burn 1x: 1 bad of 10 -> rung 1
        self.drive(ctl, metrics, 1, 10, 1.0)
        assert ctl.level == 1 and ctl.rung.name == "reject-lowest"
        # burn 4x in the next window -> rung 3
        self.drive(ctl, metrics, 4, 10, 12.0)
        assert ctl.level == 3 and ctl.rung.name == "top-only"
        # clean window -> back to admit-all
        self.drive(ctl, metrics, 0, 10, 24.0)
        assert ctl.level == 0
        assert [lvl for _, lvl in ctl.transitions] == [1, 3, 0]

    def test_poll_interval_throttles_observes(self):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        ctl = BackpressureController(monitor, poll_interval_ms=5.0)
        ctl.tick(0.0)
        n_snapshots = len(monitor._snapshots)
        ctl.tick(1.0)
        ctl.tick(4.9)
        assert len(monitor._snapshots) == n_snapshots
        ctl.tick(5.0)
        assert len(monitor._snapshots) == n_snapshots + 1

    def test_tick_behind_monitor_clock_reuses_statuses(self):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        metrics.counter("bad").inc(5)
        metrics.counter("total").inc(10)
        monitor.observe(100.0)             # drain path ran ahead
        ctl = BackpressureController(monitor, poll_interval_ms=0.0)
        rung = ctl.tick(50.0)              # must not raise
        assert rung.name == "top-only"     # burn 5x from cached statuses
        assert monitor.last_ms == 100.0    # no backwards observe

    def test_unknown_objective_rejected(self):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        with pytest.raises(ValueError, match="not watched"):
            BackpressureController(monitor, objective="nope")

    def test_ladder_validation(self):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        with pytest.raises(ValueError, match="min_burn=0"):
            BackpressureController(
                monitor, ladder=[ShedRung(name="x", min_burn=1.0)])
        with pytest.raises(ValueError, match="shed_floor"):
            ShedRung(name="x", min_burn=0.0, shed_floor=0)


class TestDecisions:
    def at_level(self, level):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        ctl = BackpressureController(monitor, poll_interval_ms=0.0)
        burn = {0: 0, 1: 1, 2: 2, 3: 5}[level]
        if burn:
            metrics.counter("bad").inc(burn)
        metrics.counter("total").inc(10)
        ctl.tick(1.0)
        assert ctl.level == level
        return ctl

    def test_priority_zero_never_shed(self):
        for level in range(len(DEFAULT_SHED_LADDER)):
            assert self.at_level(level).decide(req(0)) is None

    def test_reject_lowest_spares_mid_priority(self):
        ctl = self.at_level(1)
        assert ctl.decide(req(1)) is None
        assert ctl.decide(req(2)) == "shed:reject-lowest"

    def test_top_only_sheds_everything_else(self):
        ctl = self.at_level(3)
        assert ctl.decide(req(1)) == "shed:top-only"
        assert ctl.decide(req(2)) == "shed:top-only"

    def test_degrade_low_clamps_k(self):
        ctl = self.at_level(2)
        assert ctl.decide(req(1)) is None
        assert ctl.degraded_k(req(1, k=10)) == 5
        assert ctl.degraded_k(req(0, k=10)) is None
        # already at or below the clamp: no degrade flag
        assert ctl.degraded_k(req(1, k=1)) is None

    def test_degrade_respects_min_k(self):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        ctl = BackpressureController(monitor, poll_interval_ms=0.0,
                                     degrade_k_factor=0.1, min_k=3)
        metrics.counter("bad").inc(2)
        metrics.counter("total").inc(10)
        ctl.tick(1.0)
        assert ctl.level == 2
        assert ctl.degraded_k(req(1, k=10)) == 3


class TestServerShedding:
    @pytest.fixture
    def corpus(self):
        return skewed_csr(80, 30, seed=DEFAULT_SEED, scale=6, floor=1,
                          cap=25)

    @pytest.fixture
    def queries(self):
        return random_csr(seeded_rng(DEFAULT_SEED + 1), 12, 30, 0.3)

    def test_shed_ledger_and_metrics(self, corpus, queries):
        """Force rung 3 via a pre-burned monitor: low priority is shed
        with full accounting, priority 0 sails through."""
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        metrics.counter("bad").inc(5)
        metrics.counter("total").inc(10)
        ctl = BackpressureController(monitor, poll_interval_ms=0.0)
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=100, max_wait_ms=100.0,
                        backpressure=ctl, metrics=metrics)

        f0 = server.submit(queries.slice_rows(0, 1), K, arrival_ms=0.0,
                           priority=0)
        with pytest.raises(AdmissionRejected) as exc_info:
            server.submit(queries.slice_rows(1, 2), K, arrival_ms=0.1,
                          priority=2)
        assert exc_info.value.reason == "shed:top-only"
        server.drain()

        assert not f0.result().partial
        assert len(server.shed_reports) == 1
        shed = server.shed_reports[0]
        assert shed.kind == "shed" and shed.shed_level == 3
        assert metrics.get("serve_shed_total").value(
            priority="2", reason="shed:top-only") == 1
        assert (metrics.get("serve_requests_total").value()
                == len(server.request_reports)
                + len(server.shed_reports) == 2)

    def test_degraded_submit_records_requested_k(self, corpus, queries):
        metrics = MetricsRegistry()
        monitor = ratio_monitor(metrics)
        metrics.counter("bad").inc(2)
        metrics.counter("total").inc(10)
        ctl = BackpressureController(monitor, poll_interval_ms=0.0)
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=100, max_wait_ms=100.0,
                        backpressure=ctl, metrics=metrics)
        future = server.submit(queries.slice_rows(0, 1), 10,
                               arrival_ms=0.0, priority=1)
        server.drain()
        result = future.result()
        assert result.report.degraded
        assert result.report.requested_k == 10
        assert result.distances.shape == (1, 5)
        assert metrics.get("serve_degraded_total").value(priority="1") == 1


class TestBurstAcceptance:
    def test_backpressure_preserves_p0_objective(self):
        """The PR's acceptance contrast, asserted deterministically: on
        the bursty trace the open-loop run blows the priority-0 latency
        SLO (burn alerts fire), the backpressure run holds it with zero
        p0 alerts, and both ledgers reconcile to the integer."""
        from repro.bench.runner import run_burst_cell

        open_loop = run_burst_cell(backpressure=False)
        shedding = run_burst_cell(backpressure=True)

        assert open_loop["reconciled"] and shedding["reconciled"]
        assert open_loop["shed"] == 0 and open_loop["peak_shed_level"] == 0
        assert not open_loop["p0_ok"]
        assert open_loop["p0_alerts"] > 0
        assert open_loop["deadline_missed"] > 0

        assert shedding["shed"] > 0
        assert shedding["peak_shed_level"] >= 1
        assert shedding["p0_ok"]
        assert shedding["p0_alerts"] == 0
        assert shedding["deadline_missed"] == 0
        assert shedding["p0_p99_latency_ms"] < open_loop["p0_p99_latency_ms"]
        # shedding never touches priority 0: every p0 submission resolves
        assert (open_loop["resolved"] - shedding["resolved"]
                == shedding["shed"] + shedding["rejected"])
