"""Tests of the benchmark itself (not of ``repro``).

Run from the repository root::

    python3 -m pytest perfbench -q

Jobs run on smaller dataset replicas and shortened serve sessions so the
file finishes in well under a minute; the full-size workloads are what
``perfbench/run.py`` measures.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: (workload, dataset scale divisor, requests per serve session)
SMALL = {"knn_batch": (640.0, None), "dist_namm": (400.0, None),
         "serve_burst": (256.0, 60), "serve_readwrite": (256.0, 60)}


def small(name: str, seed: int = 3):
    workload = workloads.WORKLOADS[name]()
    workload.scale, n_requests = SMALL[name]
    workload.setup(seed)
    return workload, n_requests


def run_job(workload, n_requests):
    if n_requests is None:
        return workload.job()
    return workload.job(n_requests=n_requests)


def _inputs(workload):
    out = []
    for m in [workload.matrix] + getattr(workload, "queries", []):
        out += [m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()]
    for attr in ("trace", "writes"):
        out.append(repr(getattr(workload, attr, None)))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs(name):
    a, _ = small(name, seed=5)
    b, _ = small(name, seed=5)
    c, _ = small(name, seed=6)
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(c)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_deterministic_metrics(name):
    results = []
    for _ in range(2):
        workload, n = small(name)
        job = run_job(workload, n)
        results.append((job.sim_s, np.percentile(job.sim_req_ms, 99),
                        job.refused, job.submitted,
                        job.layer_counts.get("dist.comm_bytes"),
                        job.fingerprint))
        attempted, failed = workload.check([job])
        assert attempted >= 1 and failed == 0
    assert results[0] == results[1]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_job_matches_untraced(name):
    workload, n = small(name)
    untraced = run_job(workload, n)
    with layers.LayerTracer() as tracer:
        traced = run_job(workload, n)
    assert traced.fingerprint == untraced.fingerprint
    assert traced.sim_s == untraced.sim_s
    assert traced.sim_req_ms == untraced.sim_req_ms
    assert tracer.spans, "the shims recorded nothing"
    self_s = tracer.self_seconds()
    assert all(v >= 0 for v in self_s.values())


def _holders():
    """Every (holder, attribute) a shim may occupy, with its object."""
    seen = {}
    for target in layers.TARGETS + layers.engine_targets():
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            seen[(cls, target.attr)] = cls.__dict__[target.attr]
            continue
        original = getattr(module, target.attr)
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in vars(mod).items():
                    if value is original:
                        seen[(mod, attr)] = value
    return seen


def _current(holder, attr):
    return (holder.__dict__[attr] if isinstance(holder, type)
            else getattr(holder, attr))


def test_originals_restored_after_traced_run_even_on_error():
    before = _holders()
    workload, n = small("serve_readwrite")
    with pytest.raises(RuntimeError):
        with layers.LayerTracer() as tracer:
            run_job(workload, n)
            assert any(_current(h, a) is not obj
                       for (h, a), obj in before.items())
            raise RuntimeError("traced code failed")
    assert tracer.spans
    for (holder, attr), obj in before.items():
        assert _current(holder, attr) is obj, (holder, attr)


def test_tracer_reentered_per_job_restores_and_accumulates():
    # The traced run enters one tracer around every other job.
    before = _holders()
    workload, n = small("knn_batch")
    tracer = layers.LayerTracer()
    counts = []
    for _ in range(2):
        with tracer:
            run_job(workload, n)
        counts.append(len(tracer.spans))
        for (holder, attr), obj in before.items():
            assert _current(holder, attr) is obj, (holder, attr)
        run_job(workload, n)
        assert len(tracer.spans) == counts[-1], "recorded while uninstalled"
    assert counts[1] == 2 * counts[0] > 0


def test_self_time_subtracts_union_of_children():
    tracer = layers.LayerTracer(targets=())
    parent = layers._Span("plan.execute", 0.0, None, 1, True)
    parent.end = 10.0
    for lo, hi in ((1.0, 4.0), (3.0, 5.0), (8.0, 9.0)):
        child = layers._Span("kernels.numerics", lo, parent, 1, True)
        child.end = hi
        tracer.spans.append(child)
    tracer.spans.append(parent)
    self_s = tracer.self_seconds()
    assert self_s["plan.execute"] == pytest.approx(10.0 - 5.0)
    assert self_s["kernels.numerics"] == pytest.approx(3 + 2 + 1)


def test_timeline_scales_by_median_probe_and_pauses_probe_time(
        monkeypatch):
    probes = iter([0.010, 0.030, 0.020])

    def slow_probe():
        time.sleep(0.002)
        return next(probes)

    monkeypatch.setattr(hostspeed, "probe", slow_probe)
    timeline = hostspeed.Timeline()
    times = []
    for _ in range(3):
        timeline.checkpoint()
        times.append(timeline.now())
    # The probe's own time is not on the clock.
    assert timeline.times == pytest.approx(times, abs=1e-3)
    assert timeline.scale() == hostspeed.REFERENCE_PROBE_S / 0.020
    assert timeline.seconds(1.0, 3.0) == pytest.approx(
        2.0 * hostspeed.REFERENCE_PROBE_S / 0.020)
