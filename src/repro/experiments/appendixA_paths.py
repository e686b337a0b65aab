"""Experiment E13 — Appendix A: do simulated paths reflect actual paths?

For each traceroute that reached its destination, check whether its AS
path appears among the tied-best paths of the Gao-Rexford simulation on
the analysis graph.  Paper shape: 73% (Amazon) to 92% (Google) of
traceroutes are contained, with Amazon lowest because early exit adds
location-dependent variation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bgpsim.parallel import propagate_origins
from .context import ExperimentContext
from .report import format_table, percent


@dataclass(frozen=True)
class PathMatchRow:
    name: str
    asn: int
    matched: int
    total: int

    @property
    def match_rate(self) -> float:
        return self.matched / self.total if self.total else 0.0


@dataclass
class AppendixAResult:
    rows: list[PathMatchRow]

    def rate(self, name: str) -> float:
        for row in self.rows:
            if row.name == name:
                return row.match_rate
        raise KeyError(name)

    def render(self) -> str:
        return format_table(
            ("cloud", "matched", "total", "rate"),
            [
                (r.name, r.matched, r.total, percent(r.match_rate))
                for r in self.rows
            ],
            title="Appendix A — simulated paths contain observed paths",
        )


def run(ctx: ExperimentContext, max_traces_per_cloud: int = 4000) -> AppendixAResult:
    """Check each cloud's first ``max_traces_per_cloud`` traceroutes.

    The traces are grouped by destination, so every destination is
    propagated once, in batches, and its state is dropped as soon as its
    traces are checked.
    """
    graph = ctx.graph
    totals = dict.fromkeys(ctx.clouds, 0)
    matched = dict.fromkeys(ctx.clouds, 0)
    # destination → (cloud name, AS path) of every trace toward it
    by_dst: dict[int, list[tuple[str, tuple[int, ...]]]] = {}
    for name, asn in ctx.clouds.items():
        traces = ctx.traceroutes.get(asn)
        if traces is None or asn not in graph:
            continue
        for t in range(min(len(traces), max_traces_per_cloud)):
            dst = traces.dst_asn[t]
            if not traces.reached[t] or dst not in graph:
                continue
            totals[name] += 1
            by_dst.setdefault(dst, []).append((name, traces.as_path(t)))
    for dst, state in propagate_origins(graph, list(by_dst)):
        # the traceroute path runs cloud→dst, which is exactly the
        # receiver→origin orientation of the simulation's best-path DAG
        # when the destination is the announcement origin
        for name, path in by_dst.pop(dst):
            if state.contains_path(path):
                matched[name] += 1
    rows = [
        PathMatchRow(
            name=name, asn=asn, matched=matched[name], total=totals[name]
        )
        for name, asn in ctx.clouds.items()
    ]
    return AppendixAResult(rows=rows)
