"""Benchmark — event-delta timeline replay vs full recompute.

The tentpole claim of the dynamic-topology engine is that replaying an
event timeline (link failures, restorations, a leak, a hijack) derives
every post-event state as a frontier-limited delta over the cached
baselines (:func:`~repro.bgpsim.events.propagate_delta_event`) instead
of a full Gao-Rexford propagation per (event, origin)
(:func:`~repro.bgpsim.events.full_event_outcome`).  This benchmark
replays the same small-profile timeline both ways via
:class:`~repro.experiments.timeline.ScenarioRunner` — the compiled
engine takes the delta path, the reference engine the full recompute
(on the same compiled kernel, so only the delta pass is timed) —
asserts the metric rows are *bitwise identical* — including a separate
untimed replay with reliance/hegemony targets, so every kernel the
runner can emit is covered — and records the comparison in
``benchmarks/bench_events.json`` (stamped with engine/workers/batch/
cpu_count like every benchmark record).

The timed sweeps emit reachability-only rows: per-row metric
post-processing costs the same on both paths, so timing it would
measure the metric kernels, not the event-delta engine under test.

Run it through ``make bench-events``.
"""

from __future__ import annotations

import time
from pathlib import Path

from benchmarks.conftest import write_bench_json
from repro.bgpsim.events import Hijack, LinkDown, LinkUp, RouteLeak
from repro.experiments.timeline import ScenarioRunner

BENCH_JSON = Path(__file__).resolve().parent / "bench_events.json"
ORIGIN_COUNT = 16
VICTIM_COUNT = 12


def _timeline(graph, origins):
    """Down/up pairs on stub provider links, plus one leak and one hijack.

    Stub link events have small disturbance regions — exactly the shape
    where the delta engine should win — while the seed events exercise
    the leak/hijack merge paths.
    """
    stubs = sorted(asn for asn in graph.nodes() if graph.is_stub(asn))
    victims = [s for s in stubs if s not in set(origins)][:VICTIM_COUNT]
    events = []
    for victim in victims:
        provider = min(graph.providers(victim))
        events.append(LinkDown(provider, victim))
        events.append(LinkUp(provider, victim, relationship="p2c"))
    events.append(RouteLeak(victims[0]))
    events.append(Hijack(victims[1]))
    return events


def _sweep(graph, origins, events, engine, targets=()):
    """One timeline replay on a private copy (the runner mutates it)."""
    runner = ScenarioRunner(
        graph.copy(), origins, targets=targets, engine=engine
    )
    return runner.run(list(events))


def _rows(result, with_metrics=False):
    return [
        (r.step, r.event, r.origin, r.reachable, r.captured)
        + ((r.reliance, r.hegemony) if with_metrics else ())
        for r in result.records
    ]


def test_bench_event_timeline_incremental_vs_full(benchmark, ctx2020):
    graph = ctx2020.graph
    stubs = sorted(asn for asn in graph.nodes() if graph.is_stub(asn))
    origins = stubs[:: max(1, len(stubs) // ORIGIN_COUNT)][:ORIGIN_COUNT]
    events = _timeline(graph, origins)

    started = time.perf_counter()
    full_result = _sweep(graph, origins, events, "reference")
    full_s = time.perf_counter() - started

    started = time.perf_counter()
    delta_result = benchmark.pedantic(
        _sweep,
        args=(graph, origins, events, "compiled"),
        rounds=1,
        iterations=1,
    )
    delta_s = time.perf_counter() - started

    # correctness first: the timed rows must be bitwise identical
    assert _rows(delta_result) == _rows(full_result), (
        "delta timeline diverged from the full recompute"
    )

    # and so must the reliance/hegemony floats (untimed replay — the
    # metric kernels cost the same on both paths)
    target = origins[0]
    assert _rows(
        _sweep(graph, origins, events, "compiled", targets=(target,)),
        with_metrics=True,
    ) == _rows(
        _sweep(graph, origins, events, "reference", targets=(target,)),
        with_metrics=True,
    ), "metric rows diverged between the engines"

    visited = [
        r.visited_fraction
        for r in delta_result.records
        if r.step > 0 and r.visited_fraction
    ]
    assert visited, "no event took the delta path"
    speedup = full_s / delta_s
    record = {
        "origins": len(origins),
        "events": len(events),
        "ases": len(graph),
        "full_s": full_s,
        "delta_s": delta_s,
        "speedup": speedup,
        "delta_path_rows": len(visited),
        "mean_visited_fraction": sum(visited) / len(visited),
        "max_visited_fraction": max(visited),
        "rows_identical": True,
        "metric_rows_identical": True,
    }
    write_bench_json(BENCH_JSON, record, engine="compiled", workers=None)

    assert speedup >= 2.0, (
        f"delta timeline ({delta_s:.3f}s) is only "
        f"{speedup:.2f}x faster than the full recompute ({full_s:.3f}s); "
        "event deltas should buy at least 2x on this sweep"
    )
