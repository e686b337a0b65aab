"""In-memory spans around calls into the program's layers.

A traced run replaces a few of the program's functions with timing
wrappers, installed at the names their callers look up: the defining
module's attribute (read by callers that import inside a function or go
through the module), every loaded ``repro`` module that bound the same
function with ``from ... import``, and, for methods, the class
attribute.  Each call records one span: an id, its parent span on the
same thread, a name, a layer, and start and end times.  Nothing under
``src/`` changes.

Only entry points called at most a few thousand times per run are
wrapped; per-AS accessors stay unwrapped so the trace does not swamp the
work it measures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

#: (id, parent id or 0, name, layer, start, end)
Span = tuple[int, int, str, str, float, float]


def _origin_count(args, kwargs, result) -> float:
    origins = kwargs.get("origins", args[1] if len(args) > 1 else ())
    return float(len(origins))


def _trace_count(args, kwargs, result) -> float:
    return float(sum(len(traces) for traces in result.values()))


def _writer_bytes(args, kwargs, result) -> float:
    return float(args[0].path.stat().st_size)


#: ``run_all``'s result keys and the experiment functions behind them,
#: in run order
EXPERIMENTS = {
    "sec4_5": "sec45_validation:run",
    "fig2": "fig2_reachability:run",
    "table1": "table1_top20:run",
    "fig3": "fig3_cone_vs_hfr:run",
    "fig4": "fig4_unreachable:run",
    "fig6_table2": "fig6_table2_reliance:run",
    "fig7_8": "fig7_10_leaks:run",
    "fig9": "fig7_10_leaks:run_fig9",
    "fig10": "fig7_10_leaks:run_fig10",
    "fig11": "fig11_map:run",
    "fig12": "fig12_coverage:run",
    "table3": "table3_rdns:run",
    "appendixA": "appendixA_paths:run",
    "appendixB": "appendixB_tier1:run",
    "appendixD": "appendixD_geolocation:run",
    "fig13": "fig13_pathlen:run",
    "metrics": "metrics_comparison:run",
}

#: every wrapped entry point: ``module:attribute`` (``Class.method`` for
#: a method), the span name, whose first part names the layer, and for
#: some a counter and what one call adds to it.  A span name gives the
#: per-layer figures ``<name>_s`` (inclusive seconds) and ``<name>.calls``.
POINTS: tuple[tuple, ...] = (
    *((f"repro.experiments.{target}", f"experiments.{key}")
      for key, target in EXPERIMENTS.items()),
    # the measurement pipeline behind build_context
    ("repro.netgen.generator:build_scenario", "netgen.build"),
    ("repro.traceroute.engine:TracerouteCampaign.run_all",
     "traceroute.campaign", "traceroute.traces", _trace_count),
    ("repro.neighbors.inference:infer_all_clouds", "neighbors.infer"),
    ("repro.topology.augment:augment_with_neighbors", "topology.augment"),
    ("repro.geo.coverage:coverage_rows", "geo.coverage"),
    # topology load and compile
    ("repro.topology.caida:load_graph", "topology.load"),
    ("repro.bgpsim.compiled:CompiledGraph.from_graph", "topology.compile"),
    ("repro.bgpsim.compiled:CompiledGraph.patched", "topology.compile"),
    # propagation: single-origin, bit-parallel batches, per-origin views
    ("repro.core.leaks:simulate_leak", "leaks.simulate"),
    ("repro.bgpsim.engine:propagate", "bgpsim.propagate"),
    ("repro.bgpsim.multiorigin:propagate_batch", "bgpsim.propagate_batch",
     "bgpsim.origins_propagated", _origin_count),
    ("repro.bgpsim.multiorigin:BatchOriginView._build_arrays",
     "bgpsim.view_build"),
    # metric kernels: DAG build (numpy and loop paths), reliance, hegemony
    ("repro.bgpsim.vectorized:build_metric_dag_vector", "kernel.dag"),
    ("repro.bgpsim.metrics_kernel:MetricDAG.__init__", "kernel.dag"),
    ("repro.bgpsim.metrics_kernel:reliance_mass_kernel", "kernel.reliance"),
    ("repro.core.hegemony:_hegemony_values", "kernel.hegemony_rows"),
    ("repro.core.hegemony:local_hegemony", "kernel.hegemony_fallback"),
    # shard writes and reads, cache tiers
    ("repro.bgpsim.shards:ShardWriter.add", "shards.write"),
    ("repro.bgpsim.shards:MetricShardWriter.add", "shards.write"),
    ("repro.bgpsim.shards:ShardWriter.close", "shards.seal",
     "shards.bytes_written", _writer_bytes),
    ("repro.bgpsim.shards:MetricShardWriter.close", "shards.seal",
     "shards.bytes_written", _writer_bytes),
    ("repro.bgpsim.shards:ShardStore.state_for", "shards.read"),
    ("repro.bgpsim.cache:RoutingStateCache.state_for", "cache.lookup"),
    ("repro.bgpsim.cache:RoutingStateCache.prefetch", "cache.prefetch"),
    # the query service core (HTTP parsing and the event loop stay outside)
    ("repro.serve:QueryService.answer", "serve.answer"),
)

#: every layer a span can belong to, in report order
LAYERS = (
    "experiments", "netgen", "traceroute", "neighbors", "topology", "geo",
    "leaks", "bgpsim", "kernel", "shards", "cache", "serve",
)


class Recorder:
    """Collects spans and counters in memory; threads keep separate
    parent stacks, so spans from executor threads nest correctly."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        counter: Optional[str] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans, counters = self.spans, self.counters
        ids, stack_of = self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, layer, start, end))
            if counter is not None:
                counters[counter] += count(args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, points: Iterable[tuple] = POINTS) -> None:
        """Wrap every entry point, at every name callers look it up by."""
        for target, name, *counted in points:
            module_name, attr = target.split(":")
            layer = name.split(".")[0]
            counter, count = counted or (None, None)
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self.wrap(raw.__func__, name, layer, counter, count)
                    )
                else:
                    wrapped = self.wrap(raw, name, layer, counter, count)
                self._set(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, layer, counter, count)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapped)

    def uninstall(self) -> None:
        """Put every replaced name back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans (one JSON list per line) and counters."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> tuple[list[Span], dict[str, float]]:
    """Read back what :meth:`Recorder.dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        counters = json.loads(handle.readline())["counters"]
        spans = [tuple(json.loads(line)) for line in handle if line.strip()]
    return spans, counters


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the durations of
    its direct children (which lie inside it on the same thread)."""
    spans = list(spans)
    child_total: dict[int, float] = defaultdict(float)
    for _id, parent, _name, _layer, start, end in spans:
        if parent:
            child_total[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for span_id, _parent, _name, layer, start, end in spans:
        out[layer] += (end - start) - child_total[span_id]
    return dict(out)


def top_level_time(spans: Iterable[Span]) -> float:
    """Total duration of spans with no parent span."""
    return sum(end - start for _i, parent, _n, _l, start, end in spans
               if not parent)


def name_totals(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, inclusive seconds).  A span nested inside
    another span of the same name is counted as a call but not timed
    again, so recursion does not double the time."""
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span_id, parent, name, _layer, start, end in spans:
        entry = out[name]
        entry[0] += 1
        ancestor = parent
        while ancestor:
            above = by_id.get(ancestor)
            if above is None:
                ancestor = 0
            elif above[2] == name:
                break
            else:
                ancestor = above[1]
        if not ancestor:
            entry[1] += end - start
    return {name: (calls, total) for name, (calls, total) in out.items()}
