"""Streaming-sweep conformance: one live view at a time must be invisible.

Every all-origin sweep streams: ``propagate_origins`` and the Fig. 6 /
Table 2, Fig. 13 and hegemony sweeps fold each per-origin view of a
``DEFAULT_BATCH``-wide batch and drop it before the next is built, so a
sweep holds one batch and one view whatever its origin count.  That is
purely a memory bound — every output must stay bit-identical to states
propagated and held eagerly.  This harness pins that equivalence across
netgen seeds and profile sizes, with the width narrowed so each sweep
spans several batches, and the edge cases where a streaming generator's
laziness could leak state: empty sweeps, batches wider than the origin
set, duplicated origins, abandonment mid-sweep.  The sweeps against the
reference engine are in ``tests/test_sweep_oracle.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from .conftest import assert_states_equal, netgen_graph, sample_origins
from repro.bgpsim import (
    RoutingStateCache,
    Seed,
    multiorigin,
    propagate,
    propagate_origins,
    resolve_stream,
)
from repro.core.hegemony import global_hegemony, local_hegemony
from repro.core.pathlen import fig13_bars, fig13_bars_sweep
from repro.core.reliance import (
    hierarchy_free_reliance,
    hierarchy_free_reliance_summaries,
    reliance_summary_sweep,
    summarize_reliance,
    summarize_reliance_from_state,
)

PROFILES = ("tiny", "small")
SEEDS = (20200901, 7, 1234)

#: narrowed batch width: the 24-origin sweeps below span three batches
WIDTH = 8


@pytest.fixture
def narrow(monkeypatch):
    monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", WIDTH)


@pytest.fixture(scope="module")
def scenario():
    """The largest profile drives the consumer-level checks."""
    from repro.netgen import build_scenario, profile

    return build_scenario(profile(PROFILES[-1]))


# ---------------------------------------------------------------------------
# the run-record shim
# ---------------------------------------------------------------------------


class TestResolveStream:
    def test_shim_is_always_off(self, monkeypatch):
        # no tier to choose any more, and the old knob is not read
        monkeypatch.setenv("REPRO_STREAM", "on")
        assert resolve_stream() is False
        assert resolve_stream(True, 10**6) is False


# ---------------------------------------------------------------------------
# state-level equivalence: 3 seeds x 2 profile sizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_name", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_eager_states(profile_name, seed, monkeypatch):
    graph = netgen_graph(profile_name, seed=seed)
    origins = sample_origins(graph, 24, seed=seed)
    # eager: one full-width batch whose views the cache holds
    eager = RoutingStateCache(graph, engine="compiled")
    assert eager.prefetch(origins) == len(origins)
    # streamed: three narrow batches, each view dropped once passed
    monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", WIDTH)
    refs = []
    for origin, state in propagate_origins(graph, origins, engine="compiled"):
        assert_states_equal(
            state,
            eager.state_for(origin),
            f"({profile_name} seed={seed} origin={origin})",
        )
        refs.append((origin, weakref.ref(state)))
    del state
    assert [o for o, _ in refs] == origins
    # the sweep retained nothing: each view died with the last reference
    # the consumer held, by refcount alone
    assert [o for o, ref in refs if ref() is not None] == []


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------


class TestStreamEdgeCases:
    def test_empty_origin_iterable(self):
        graph = netgen_graph("tiny")
        assert list(propagate_origins(graph, iter(()), engine="compiled")) == []
        cache = RoutingStateCache(graph, engine="compiled")
        assert cache.prefetch(iter(())) == 0
        stats = cache.stats()
        assert (stats.misses, stats.prefetch_chunks) == (0, 0)

    def test_batch_wider_than_origin_set(self, monkeypatch):
        monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", 64)
        graph = netgen_graph("tiny")
        origins = sample_origins(graph, 5)
        pairs = list(propagate_origins(graph, origins, engine="compiled"))
        assert [o for o, _ in pairs] == origins
        reference = RoutingStateCache(graph, engine="reference")
        for origin, state in pairs:
            assert_states_equal(
                state, reference.state_for(origin), f"(origin={origin})"
            )
        cache = RoutingStateCache(graph, engine="compiled")
        assert cache.prefetch(origins) == len(origins)
        assert cache.stats().prefetch_chunks == 1

    def test_duplicate_origins_share_one_view(self, narrow):
        graph = netgen_graph("tiny")
        a, b = sample_origins(graph, 2)
        cache = RoutingStateCache(graph, engine="compiled")
        # the duplicated origin is propagated once, not three times
        assert cache.prefetch([a, a, b, a]) == 2
        assert cache.stats().misses == 2
        assert cache.state_for(a) is cache.state_for(a)
        # a sweep yields every occurrence, in order, each an equal state
        pairs = list(propagate_origins(graph, [a, a, b, a], engine="compiled"))
        assert [o for o, _ in pairs] == [a, a, b, a]
        for position in (0, 1, 3):
            assert_states_equal(
                pairs[position][1], cache.state_for(a), f"(at {position})"
            )

    def test_abandoned_generator_releases_views(self, narrow):
        graph = netgen_graph("tiny")
        graph.compile()
        origins = sorted(graph.nodes())
        # warm-up: one-time allocator/interpreter costs stay unmeasured
        for _origin, _state in propagate_origins(
            graph, origins[:WIDTH], engine="compiled"
        ):
            pass
        gc.collect()
        tracemalloc.start()
        try:
            sweep = propagate_origins(graph, origins, engine="compiled")
            for _ in range(3):
                next(sweep)
            sweep.close()
            del sweep
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # abandoning mid-batch must drop the batch: the residual live
        # allocations are a small fraction of the in-flight peak
        assert peak > 0 and current < peak / 2, (current, peak)

    def test_excluded_sweep_matches_eager(self, narrow):
        graph = netgen_graph("tiny")
        origins = sample_origins(graph, 20)
        excluded = frozenset(sample_origins(graph, 40)[-2:]) - set(origins)
        assert excluded
        streamed = list(
            propagate_origins(
                graph, origins, excluded=excluded, engine="compiled"
            )
        )
        assert [o for o, _ in streamed] == origins
        for origin, state in streamed:
            assert not state.reachable_ases() & excluded
            assert_states_equal(
                state,
                propagate(
                    graph,
                    Seed(asn=origin),
                    excluded=excluded,
                    engine="reference",
                ),
                f"(excluded origin={origin})",
            )


# ---------------------------------------------------------------------------
# consumer-level equivalence (the experiment aggregations)
# ---------------------------------------------------------------------------


class TestConsumersStreamEqualsEager:
    """Each streamed sweep equals its one-origin function applied to
    states propagated one origin at a time on the compiled engine."""

    def test_reliance_summary_sweep_common_excluded(self, scenario, narrow):
        graph = scenario.graph
        origins = sample_origins(graph, 16, seed=2)
        common = scenario.tiers.hierarchy
        items = [(o, common - {o}) for o in origins]
        eager = [
            summarize_reliance_from_state(
                propagate(
                    graph,
                    Seed(asn=o, key="origin"),
                    excluded=excluded,
                    engine="compiled",
                )
            )
            for o, excluded in items
        ]
        streamed = reliance_summary_sweep(graph, items, engine="compiled")
        assert streamed == eager

    def test_hierarchy_free_summaries(self, scenario, narrow):
        graph = scenario.graph
        origins = sample_origins(graph, 12, seed=3)
        eager = [
            summarize_reliance(
                hierarchy_free_reliance(
                    graph, o, scenario.tiers, engine="compiled"
                )
            )
            for o in origins
        ]
        streamed = hierarchy_free_reliance_summaries(
            graph, origins, scenario.tiers, engine="compiled"
        )
        assert streamed == eager

    def test_global_hegemony(self, scenario, narrow):
        graph = scenario.graph
        targets = sample_origins(graph, 6, seed=4)
        origins = sample_origins(graph, 20, seed=5) + targets[:1]
        cache = RoutingStateCache(graph, engine="compiled")
        cache.prefetch(origins)
        eager = {}
        for target in targets:
            # the sweep's order of additions, so the floats match exactly
            total, count = 0.0, 0
            for origin in origins:
                if origin != target:
                    total += local_hegemony(graph, origin, target, cache=cache)
                    count += 1
            eager[target] = total / count
        streamed = global_hegemony(
            graph, targets, origins=origins, engine="compiled"
        )
        assert streamed == eager

    def test_global_hegemony_empty_origins(self, scenario):
        graph = scenario.graph
        targets = sample_origins(graph, 4, seed=6)
        streamed = global_hegemony(
            graph, targets, origins=[], engine="compiled"
        )
        assert streamed == dict.fromkeys(targets, 0.0)

    def test_fig13_bars_sweep(self, scenario, narrow):
        graph = scenario.graph
        origins = sample_origins(graph, 20, seed=7)
        eager = [
            fig13_bars(graph, o, scenario.users, engine="compiled")
            for o in origins
        ]
        streamed = fig13_bars_sweep(
            graph, origins, scenario.users, engine="compiled"
        )
        assert streamed == eager

    def test_fig13_empty_origins(self, scenario):
        assert fig13_bars_sweep(scenario.graph, [], scenario.users) == []

    def test_reliance_empty_items(self, scenario):
        assert reliance_summary_sweep(scenario.graph, []) == []
