"""Per-layer host timing from outside the program.

:class:`LayerTracer` wraps the public functions that bound each layer of
``repro`` with timing shims. Each shim records one span (layer, start,
end, parent) in memory; :meth:`LayerTracer.self_seconds`,
:meth:`LayerTracer.calls` and :meth:`LayerTracer.chrome_trace` reduce
them after the traced jobs.

A module-level function imported by name (``from repro.plan.pairwise_plan
import build_pairwise_plan``) is patched in every ``repro`` module that
holds it, so the call sites inside the library see the shim. Methods are
patched on the class that defines them. Every original object is put
back by :meth:`LayerTracer.uninstall`, which the context-manager form
always runs, also when the traced code raises.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers whose self time the report carries, in report order. The
#: pseudo-layer ``trace.shim`` holds the work counting the shims do
#: themselves (chiefly the top-k tie count), so that it is charged to no
#: layer of the program.
LAYERS = (
    "plan.build", "plan.execute",
    "kernels.run", "kernels.numerics",
    "gpusim.bank_conflicts", "gpusim.launch",
    "core.expansion",
    "neighbors.topk.select", "neighbors.topk.merge",
    "serve.submit", "serve.scheduler", "serve.backpressure",
    "serve.mutable.write", "serve.mutable.compact", "serve.mutable.filter",
    "dist.plan", "dist.execute",
    "obs.telemetry", "obs.metrics", "obs.tracer",
    "trace.shim",
)


def _tiles(result, args, kwargs):
    return {"plan.tiles": result.n_tiles}


def _numerics_cells(result, args, kwargs):
    return {"kernels.numerics.cells": args[0].n_rows * args[1].n_rows}


def _offsets(result, args, kwargs):
    return {"gpusim.bank_conflicts.offsets": int(np.size(args[0]))}


def _expansion_cells(result, args, kwargs):
    return {"core.expansion.cells": int(np.size(result))}


def _select_rows(result, args, kwargs):
    return {"neighbors.topk.select.rows": result[0].shape[0],
            "neighbors.topk.tie_rows": _boundary_tie_rows(args, kwargs,
                                                          result)}


def _compacted_rows(result, args, kwargs):
    return {"serve.mutable.compact.rows": int(result.live_rows)}


@dataclass(frozen=True)
class Target:
    """One function or method to wrap: ``owner`` is a dotted module path,
    or ``module:Class`` for a method defined on that class."""

    layer: str
    owner: str
    attr: str
    #: whether a call counts in the layer's ``calls``
    counted: bool = True
    #: ``(result, args, kwargs) -> {count name: amount}``, run after the
    #: span closes and charged to ``trace.shim``
    work: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("plan.build", "repro.plan.pairwise_plan", "build_pairwise_plan"),
    Target("plan.execute", "repro.plan.executor:PlanExecutor", "execute",
           work=_tiles),
    Target("kernels.numerics", "repro.kernels.functional", "semiring_block",
           work=_numerics_cells),
    Target("gpusim.bank_conflicts", "repro.gpusim.memory",
           "bank_conflicts_for_offsets", work=_offsets),
    Target("gpusim.launch", "repro.gpusim.executor", "simulate_launch"),
    Target("gpusim.launch", "repro.gpusim.cost_model", "price_launch"),
    Target("core.expansion", "repro.core.distances:DistanceMeasure",
           "apply_expansion", work=_expansion_cells),
    Target("core.expansion", "repro.core.distances:DistanceMeasure",
           "apply_finalize", work=_expansion_cells),
    Target("neighbors.topk.select", "repro.neighbors.topk", "select_topk",
           work=_select_rows),
    Target("neighbors.topk.merge", "repro.neighbors.topk:TopKAccumulator",
           "update_pairs"),
    Target("neighbors.topk.merge", "repro.neighbors.topk:TopKAccumulator",
           "finalize"),
    Target("neighbors.topk.merge", "repro.serve.sharding:ShardedIndex",
           "merge_shard_topk"),
    Target("serve.submit", "repro.serve.server:Server", "submit"),
    Target("serve.scheduler", "repro.serve.scheduler:QueryScheduler",
           "offer"),
    Target("serve.scheduler", "repro.serve.scheduler:QueryScheduler",
           "flush"),
    Target("serve.backpressure",
           "repro.serve.backpressure:BackpressureController", "tick"),
    Target("serve.backpressure",
           "repro.serve.backpressure:BackpressureController", "decide"),
    Target("serve.backpressure", "repro.obs.slo:SLOMonitor", "observe"),
    Target("serve.mutable.write", "repro.serve.mutable:MutableIndex",
           "upsert"),
    Target("serve.mutable.write", "repro.serve.mutable:MutableIndex",
           "delete"),
    Target("serve.mutable.compact", "repro.serve.mutable:MutableIndex",
           "compact", work=_compacted_rows),
    Target("serve.mutable.filter", "repro.serve.mutable:MutableIndex",
           "filter_shard_topk"),
    Target("dist.plan", "repro.dist.plan", "build_distributed_plan"),
    Target("dist.execute", "repro.dist.executor:DistributedExecutor",
           "execute"),
    Target("obs.telemetry", "repro.obs.telemetry:Telemetry", "emit"),
    Target("obs.metrics", "repro.obs.metrics:Counter", "inc"),
    Target("obs.metrics", "repro.obs.metrics:Gauge", "set"),
    Target("obs.metrics", "repro.obs.metrics:Gauge", "set_max"),
    Target("obs.metrics", "repro.obs.metrics:Gauge", "inc"),
    Target("obs.metrics", "repro.obs.metrics:Histogram", "observe"),
    Target("obs.tracer", "repro.obs.tracer:Tracer", "span"),
    Target("obs.tracer", "repro.obs.tracer:Span", "__enter__",
           counted=False),
    Target("obs.tracer", "repro.obs.tracer:Span", "__exit__",
           counted=False),
)


def engine_targets() -> Tuple[Target, ...]:
    """``kernels.run``: the ``run`` method of every registered engine
    class (and baseline kernel) that defines its own."""
    from repro.kernels import available_engines, engine_info
    from repro.kernels.base import PairwiseKernel

    classes = {engine_info(name).factory for name in available_engines()}
    stack = list(PairwiseKernel.__subclasses__())
    while stack:
        cls = stack.pop()
        classes.add(cls)
        stack.extend(cls.__subclasses__())
    return tuple(
        Target("kernels.run", f"{cls.__module__}:{cls.__qualname__}", "run")
        for cls in sorted(classes, key=lambda c: (c.__module__,
                                                  c.__qualname__))
        if "run" in cls.__dict__)


class _Span:
    __slots__ = ("layer", "start", "end", "parent", "thread", "counted")

    def __init__(self, layer, start, parent, thread, counted):
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.counted = counted


class LayerTracer:
    """Installs the shims, records spans, and reduces them per layer.

    Use as a context manager around the traced jobs::

        with LayerTracer() as tracer:
            run_job()
        self_s = tracer.self_seconds()
    """

    def __init__(self, targets: Optional[Tuple[Target, ...]] = None):
        self._targets = targets
        self.spans: List[_Span] = []
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: List[_Span] = []
        #: ``(holder, name, original)`` for every patched attribute
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def install(self) -> None:
        targets = self._targets
        if targets is None:
            targets = TARGETS + engine_targets()
        try:
            for target in targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            raw = cls.__dict__[target.attr]
            if isinstance(raw, staticmethod):
                shim = staticmethod(self._shim(raw.__func__, target))
            else:
                shim = self._shim(raw, target)
            self._patched.append((cls, target.attr, raw))
            setattr(cls, target.attr, shim)
            return
        original = getattr(module, target.attr)
        shim = self._shim(original, target)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, shim)

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[_Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _shim(self, fn: Callable, target: Target) -> Callable:
        layer, counted, work = target.layer, target.counted, target.work
        perf_counter = time.perf_counter
        record = self._open

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span, stack = record(layer, counted)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if work is not None:
                self._count(work, result, args, kwargs)
            return result

        return shim

    def _open(self, layer: str, counted: bool):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's outermost span belongs to whatever the
            # submitting (main) thread is inside, e.g. dist.execute.
            parent = next(reversed(self._main_stack), None)
        span = _Span(layer, 0.0, parent, threading.get_ident(), counted)
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span, stack

    def _count(self, work, result, args, kwargs) -> None:
        shim, stack = self._open("trace.shim", False)
        try:
            amounts = work(result, args, kwargs)
            with self._lock:
                for name, amount in amounts.items():
                    self.counts[name] = self.counts.get(name, 0) + amount
        finally:
            shim.end = time.perf_counter()
            stack.pop()

    # -- reduction -----------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus the union of
        its child spans' intervals (clipped to the span)."""
        children: Dict[int, List[_Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.end is None:
                continue
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(id(span), ())
                 if c.end is not None])
            totals[span.layer] += (span.end - span.start) - covered
        return totals

    def calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for span in self.spans:
            if span.counted:
                out[span.layer] += 1
        return out

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON: one complete event per span."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(s.start for s in self.spans)
        threads = {}
        index = {id(s): i for i, s in enumerate(self.spans)}
        events = []
        for i, span in enumerate(self.spans):
            if span.end is None:
                continue
            tid = threads.setdefault(span.thread, len(threads))
            events.append({
                "name": span.layer, "cat": span.layer.split(".")[0],
                "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"span": i,
                         "parent": (index[id(span.parent)]
                                    if span.parent is not None else None)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _boundary_tie_rows(args, kwargs, result) -> int:
    """Rows of a ``select_topk`` call whose k-th selected value also
    occurs among the entries left out: the rows that take the stable
    full-sort fallback."""
    distances = np.asarray(args[0] if args else kwargs["distances"],
                           dtype=np.float64)
    values = result[0]
    k = values.shape[1]
    if k == 0 or k >= distances.shape[1]:
        return 0
    boundary = values[:, -1]
    in_block = (distances == boundary[:, None]).sum(axis=1)
    in_topk = (values == boundary[:, None]).sum(axis=1)
    return int((in_block > in_topk).sum())
