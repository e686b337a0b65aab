"""Benchmark — scale sweep with per-stage wall time and memory peaks.

One row per netgen profile (``small`` ~700 ASes, ``mid`` ~2k, ``large``
~10k): wall time (best-of rounds) *and* tracemalloc / RSS high-water
marks for building + compiling the topology, the per-cloud compiled
propagation sweep, and the full Fig. 6/Table 2 hierarchy-free reliance
sweep.  Set ``REPRO_FULL_PROFILE=1`` to append a ``full`` (~70k-AS)
generation + structural-validation row.

Run it through ``make bench-scale``; the record lands in
``benchmarks/bench_scale.json``.
"""

from __future__ import annotations

import os
import resource
import time
import tracemalloc
from pathlib import Path

from benchmarks.conftest import write_bench_json
from repro.bgpsim import Seed, propagate
from repro.core.reliance import hierarchy_free_reliance_summaries
from repro.netgen import build_scenario, profile, validate_scenario

BENCH_JSON = Path(__file__).resolve().parent / "bench_scale.json"
SCALES = ("small", "mid", "large")
#: best-of rounds per timed stage (tames scheduler noise on small hosts)
ROUNDS = 3


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _stage(func, rounds: int = ROUNDS):
    """Best-of wall time (untraced) + tracemalloc peak (one traced run).

    The traced run is separate so tracemalloc's overhead never distorts
    the recorded wall time; ``rss_peak_mb`` is the process high-water
    mark *after* the stage (monotone across stages by definition).
    """
    wall = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = func()
        wall = min(wall, time.perf_counter() - started)
    tracemalloc.start()
    try:
        func()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stats = {
        "wall_s": wall,
        "tracemalloc_peak_mb": peak / 1e6,
        "rss_peak_mb": _rss_mb(),
    }
    return stats, result


def _scale_row(name, rounds=ROUNDS):
    build_stats, scenario = _stage(
        lambda: build_scenario(profile(name)), rounds=1
    )
    graph = scenario.graph
    started = time.perf_counter()
    graph.compile()
    build_stats["wall_s"] += time.perf_counter() - started

    clouds = sorted(scenario.clouds.values())
    propagate_stats, _ = _stage(
        lambda: [
            propagate(graph, Seed(asn=asn), engine="compiled")
            for asn in clouds
        ],
        rounds=rounds,
    )
    fig6_stats, summaries = _stage(
        lambda: hierarchy_free_reliance_summaries(
            graph, clouds, scenario.tiers, engine="compiled"
        ),
        rounds=rounds,
    )
    row = {
        "profile": name,
        "ases": len(graph),
        "clouds": len(clouds),
        "build_compile": build_stats,
        "propagate_sweep": propagate_stats,
        "fig6_reliance_sweep": fig6_stats,
        "networks_relied_on": [s.networks for s in summaries],
    }
    return row


def _full_row():
    """Paper-scale generation + structural validation (no sweeps: the
    point of this row is that the ~70k-AS profile builds and passes the
    seed profiles' tolerance band)."""
    gen_stats, scenario = _stage(
        lambda: build_scenario(profile("full")), rounds=1
    )
    val_stats, report = _stage(
        lambda: validate_scenario(scenario), rounds=1
    )
    assert report.ok, report.violations
    return {
        "profile": "full",
        "ases": report.n_ases,
        "edges": report.n_edges,
        "generate": gen_stats,
        "validate": val_stats,
        "structure": {
            "avg_degree": report.avg_degree,
            "assortativity": report.assortativity,
            "clustering": report.clustering,
            "neighbor_degree_corr": report.neighbor_degree_corr,
        },
    }


def test_bench_scale_sweep(benchmark):
    rows = [_scale_row(name) for name in SCALES[:-1]]
    # the large row is timed once under the benchmark timer (building the
    # ~10k-AS scenario repeatedly would dominate the suite's runtime)
    rows.append(
        benchmark.pedantic(
            _scale_row,
            args=(SCALES[-1],),
            kwargs={"rounds": 1},
            rounds=1,
            iterations=1,
        )
    )
    record = {"rounds": ROUNDS, "scales": rows}
    if os.environ.get("REPRO_FULL_PROFILE") == "1":
        record["full"] = _full_row()
    write_bench_json(BENCH_JSON, record, engine="compiled", workers=None)

    assert [row["profile"] for row in rows] == list(SCALES)
    for row in rows:
        assert row["propagate_sweep"]["wall_s"] > 0.0
        assert row["fig6_reliance_sweep"]["tracemalloc_peak_mb"] > 0.0
    # scale ordering sanity: each profile really is materially larger
    sizes = [row["ases"] for row in rows]
    assert sizes == sorted(sizes) and sizes[-1] > 4 * sizes[0]
