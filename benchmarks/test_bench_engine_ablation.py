"""Ablation — the bitset cone engine vs the exact valley-free BFS, and
the propagation-engine ablation (reference / compiled).

DESIGN.md calls out the all-AS sweep fast path as a design choice; this
benchmark measures both implementations on the same sweep and checks they
agree exactly.

The engine ablation times the same all-origin sweep under the reference
dict-of-objects engine and the compiled CSR kernel; it records wall time,
tracemalloc peak for the retained states, and the pickled payload sizes
(dict-of-sets ``ASGraph`` vs CSR ``CompiledGraph``, the form a process
pool ships to its workers) in ``benchmarks/bench_compiled_engine.json``.
The compiled-beats-reference assertion holds on any host.
"""

import pickle
import time
import tracemalloc
from pathlib import Path

import pytest

from benchmarks.conftest import write_bench_json
from repro.bgpsim import propagate_many
from repro.core import ConeEngine, hierarchy_free_reachability
from repro.core.metrics import hierarchy_free_sweep

COMPILED_JSON = Path(__file__).resolve().parent / "bench_compiled_engine.json"


@pytest.fixture(scope="module")
def sample_origins(ctx2020):
    nodes = sorted(ctx2020.graph.nodes())
    return nodes[:: max(1, len(nodes) // 150)]


def test_bench_sweep_bitset_engine(benchmark, ctx2020, sample_origins):
    graph, tiers = ctx2020.graph, ctx2020.tiers
    engine = ConeEngine(graph, excluded=tiers.hierarchy)

    def sweep():
        return hierarchy_free_sweep(
            graph, tiers, origins=sample_origins, engine=engine
        )

    result = benchmark(sweep)
    assert len(result) == len(sample_origins)


def test_bench_sweep_exact_bfs(benchmark, ctx2020, sample_origins):
    graph, tiers = ctx2020.graph, ctx2020.tiers

    def sweep():
        return {
            origin: hierarchy_free_reachability(graph, origin, tiers)
            for origin in sample_origins
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # exactness: the fast path returns identical values
    engine = ConeEngine(graph, excluded=tiers.hierarchy)
    fast = hierarchy_free_sweep(
        graph, tiers, origins=sample_origins, engine=engine
    )
    assert fast == result


@pytest.fixture(scope="module")
def propagation_origins(ctx2020):
    nodes = sorted(ctx2020.graph.nodes())
    return nodes[:: max(1, len(nodes) // 80)]


# ---------------------------------------------------------------------------
# engine ablation: reference / compiled
# ---------------------------------------------------------------------------

_engine_ablation: dict[str, dict] = {}


def _timed_sweep(graph, origins, *, engine):
    started = time.perf_counter()
    states = list(propagate_many(graph, origins, engine=engine))
    wall_s = time.perf_counter() - started
    # peak memory of computing + retaining the whole sweep's states
    # (measured outside the timed run — tracing slows the kernel itself)
    tracemalloc.start()
    retained = list(propagate_many(graph, origins, engine=engine))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del retained
    return states, {"wall_s": wall_s, "tracemalloc_peak_bytes": peak}


def test_bench_engine_ablation_reference(
    benchmark, ctx2020, propagation_origins
):
    graph = ctx2020.graph

    def sweep():
        states, record = _timed_sweep(
            graph, propagation_origins, engine="reference"
        )
        _engine_ablation["reference"] = record
        return states

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(result) == len(propagation_origins)


def test_bench_engine_ablation_compiled_serial(
    benchmark, ctx2020, propagation_origins
):
    graph = ctx2020.graph
    graph.compile()  # one-time CSR build stays out of the timed sweep

    def sweep():
        states, record = _timed_sweep(
            graph, propagation_origins, engine="compiled"
        )
        _engine_ablation["compiled_serial"] = record
        return states

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # exactness: the compiled kernel returns identical states
    reference = propagate_many(
        graph, propagation_origins, engine="reference"
    )
    for comp_state, ref_state in zip(result, reference):
        assert comp_state.routes.keys() == ref_state.routes.keys()
        for asn, ref_route in ref_state.routes.items():
            comp_route = comp_state.routes[asn]
            assert (
                comp_route.route_class == ref_route.route_class
                and comp_route.length == ref_route.length
                and comp_route.parents == ref_route.parents
                and comp_route.origins == ref_route.origins
            )

    graph_bytes = len(pickle.dumps(graph))
    compiled_bytes = len(pickle.dumps(graph.compile()))
    reference_s = _engine_ablation["reference"]["wall_s"]
    compiled_s = _engine_ablation["compiled_serial"]["wall_s"]
    record = {
        "origins": len(propagation_origins),
        "ases": len(graph),
        "engines": _engine_ablation,
        "speedup_compiled_vs_reference": reference_s / compiled_s,
        "pickled_asgraph_bytes": graph_bytes,
        "pickled_compiled_graph_bytes": compiled_bytes,
        "payload_reduction_factor": graph_bytes / compiled_bytes,
    }
    write_bench_json(COMPILED_JSON, record)

    assert compiled_bytes < graph_bytes, (
        f"CompiledGraph pickled to {compiled_bytes} bytes, not smaller "
        f"than the {graph_bytes}-byte ASGraph"
    )
    assert compiled_s < reference_s, (
        f"compiled sweep ({compiled_s:.3f}s) did not beat the reference "
        f"engine ({reference_s:.3f}s)"
    )


def test_bench_measurement_pipeline(benchmark):
    """E12's cost driver: the full scenario + campaign + inference build."""
    from repro.experiments.context import build_context

    def build():
        return build_context("tiny", seed=99)

    ctx = benchmark.pedantic(build, rounds=1, iterations=1)
    assert ctx.inferred
    assert ctx.augmented_graph.edge_count() > 0
