"""Benchmark — the leak sweep's delta path vs full recompute on the
Fig. 7/8 leak sweep.

The headline claim of the delta pass (:mod:`repro.bgpsim.incremental`)
is that a Fig. 7/8-shaped resilience sweep (five announcement/locking
configurations, many leakers each) gets ≥3× faster because each
configuration's baseline is propagated once and every leaker only
re-propagates the region its leak disturbs.  This benchmark times the
two paths directly on the shared experiment context, both on the
compiled kernel:

* ``full`` — :func:`~repro.core.leaks.simulate_leak` per leaker, two
  full propagations each;
* ``delta`` — :func:`~repro.core.leaks.simulate_leaks`, which under the
  compiled engine shares one baseline per configuration and runs the
  delta pass per leaker (falling back per leaker where it cannot serve).

It asserts the detoured-fraction curves are *bitwise identical*,
asserts the speedup, and records the comparison — wall times, speedup,
and the mean/max fraction of ASes the delta passes visited — in
``benchmarks/bench_leak_incremental.json`` (stamped with
engine/workers/cpu_count like every benchmark record).

Run it through ``make bench-leaks``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from benchmarks.conftest import write_bench_json
from repro.bgpsim import RoutingStateCache
from repro.core.leaks import (
    LEAK_CONFIGURATIONS,
    configuration_seed_and_locks,
    simulate_leak,
    simulate_leaks,
)

BENCH_JSON = Path(__file__).resolve().parent / "bench_leak_incremental.json"
LEAKER_COUNT = int(os.environ.get("REPRO_BENCH_LEAKERS", "40"))


def _full(graph, seed, leakers, locks):
    return [
        simulate_leak(graph, seed, leaker, peer_locked=locks, engine="compiled")
        for leaker in leakers
    ]


def _delta(graph, seed, leakers, locks, cache):
    return simulate_leaks(
        graph, seed, leakers, peer_locked=locks, engine="compiled",
        cache=cache,
    )


def _sweep(graph, tiers, origin, leakers, run):
    """One Fig. 7/8-shaped sweep: every configuration, every leaker.

    ``run(seed, locks)`` returns the configuration's outcomes.  Returns
    ``(curves, outcomes)`` where ``curves`` maps configuration → sorted
    detoured fractions (exactly what ``resilience_curve`` plots).
    """
    curves = {}
    outcomes = []
    for configuration in LEAK_CONFIGURATIONS:
        seed, locks = configuration_seed_and_locks(
            graph, origin, tiers, configuration
        )
        results = run(seed, locks)
        outcomes.extend(results)
        curves[configuration] = sorted(
            outcome.fraction_detoured
            for outcome in results
            if outcome is not None
        )
    return curves, outcomes


def test_bench_leak_sweep_incremental_vs_full(benchmark, ctx2020):
    graph, tiers = ctx2020.graph, ctx2020.tiers
    nodes = sorted(graph.nodes())
    # the sweep the experiment actually runs is per-cloud (Fig. 7/8)
    origin = sorted(ctx2020.clouds.values())[0]
    leakers = [
        asn
        for asn in nodes[:: max(1, len(nodes) // LEAKER_COUNT)]
        if asn != origin
    ]

    started = time.perf_counter()
    full_curves, _ = _sweep(
        graph, tiers, origin, leakers,
        lambda seed, locks: _full(graph, seed, leakers, locks),
    )
    full_s = time.perf_counter() - started

    cache = RoutingStateCache(graph)

    def sweep():
        return _sweep(
            graph, tiers, origin, leakers,
            lambda seed, locks: _delta(graph, seed, leakers, locks, cache),
        )

    started = time.perf_counter()
    delta_curves, outcomes = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    delta_s = time.perf_counter() - started

    # correctness first: the curves must be bitwise identical
    assert delta_curves == full_curves, (
        "delta sweep diverged from the full recompute"
    )

    visited = [
        outcome.visited_fraction
        for outcome in outcomes
        if outcome is not None and outcome.visited_fraction is not None
    ]
    assert visited, "no leaker took the delta path"
    speedup = full_s / delta_s
    record = {
        "origin": origin,
        "leakers": len(leakers),
        "configurations": len(LEAK_CONFIGURATIONS),
        "ases": len(graph),
        "full_s": full_s,
        "delta_s": delta_s,
        "speedup": speedup,
        "delta_path_outcomes": len(visited),
        "mean_visited_fraction": sum(visited) / len(visited),
        "max_visited_fraction": max(visited),
        "curves_identical": True,
    }
    write_bench_json(BENCH_JSON, record, engine="compiled", workers=None)

    assert speedup >= 3.0, (
        f"delta sweep ({delta_s:.3f}s) is only {speedup:.2f}x "
        f"faster than the full recompute ({full_s:.3f}s); the shared "
        "baseline should buy at least 3x on this sweep"
    )
