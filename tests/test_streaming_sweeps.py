"""Streaming-sweep conformance: O(batch) aggregation must be invisible.

The streaming tier (``states_for_many(stream=True)`` and the ``stream``
knob on the experiment aggregations) exists purely to bound memory at
paper scale — every output must stay bit-identical to the eager path.
This harness pins that equivalence across netgen seeds and profile
sizes, the knob resolution semantics, and the edge cases where a
streaming generator's laziness could leak state: empty sweeps, windows
wider than the origin set, duplicated origins, abandonment mid-sweep.

``REPRO_STREAM_PROFILES`` selects the profile sizes (comma-separated);
CI's streaming leg sets it to exercise the ``mid`` profile.
"""

from __future__ import annotations

import gc
import os
import random
import tracemalloc

import pytest

from .conftest import assert_states_equal, netgen_graph, sample_origins
from repro.bgpsim import (
    DEFAULT_STREAM_THRESHOLD,
    RoutingStateCache,
    resolve_stream,
)
from repro.core.hegemony import global_hegemony
from repro.core.leaks import average_resilience_curve
from repro.core.pathlen import fig13_bars_sweep
from repro.core.reliance import (
    hierarchy_free_reliance_summaries,
    reliance_summary_sweep,
)

PROFILES = tuple(
    p.strip()
    for p in os.environ.get("REPRO_STREAM_PROFILES", "tiny,small").split(",")
    if p.strip()
)
SEEDS = (20200901, 7, 1234)


def _scenario(profile_name: str, seed: int = 20200901):
    from repro.netgen import build_scenario, profile

    return build_scenario(profile(profile_name, seed=seed))


@pytest.fixture(scope="module")
def scenario():
    """The largest requested profile drives the consumer-level checks."""
    return _scenario(PROFILES[-1])


# ---------------------------------------------------------------------------
# knob resolution
# ---------------------------------------------------------------------------


class TestResolveStream:
    def test_explicit_bool_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "on")
        assert resolve_stream(False, 10**6) is False
        monkeypatch.setenv("REPRO_STREAM", "off")
        assert resolve_stream(True, 1) is True

    @pytest.mark.parametrize("knob", ["on", "1", "true", "yes", "ON", " On "])
    def test_true_spellings(self, knob):
        assert resolve_stream(knob) is True

    @pytest.mark.parametrize("knob", ["off", "0", "false", "no", "OFF"])
    def test_false_spellings(self, knob):
        assert resolve_stream(knob, 10**6) is False

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "1")
        assert resolve_stream(None) is True
        monkeypatch.setenv("REPRO_STREAM", "0")
        assert resolve_stream(None, 10**6) is False

    def test_auto_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM", raising=False)
        assert resolve_stream(None, DEFAULT_STREAM_THRESHOLD - 1) is False
        assert resolve_stream(None, DEFAULT_STREAM_THRESHOLD) is True
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "100")
        assert resolve_stream("auto", 100) is True
        assert resolve_stream("auto", 99) is False

    def test_auto_without_size_stays_eager(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM", raising=False)
        assert resolve_stream(None, None) is False

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            resolve_stream("sometimes")


# ---------------------------------------------------------------------------
# cache-level equivalence: 3 seeds x the requested profile sizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_name", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_eager_states(profile_name, seed):
    graph = netgen_graph(profile_name, seed=seed)
    origins = sample_origins(graph, 24, seed=seed)
    eager = dict(
        RoutingStateCache(graph, engine="compiled", batch=8).states_for_many(
            origins, stream=False
        )
    )
    cache = RoutingStateCache(graph, engine="compiled", batch=8)
    streamed = list(cache.states_for_many(origins, stream=True))
    assert [o for o, _ in streamed] == origins
    for origin, state in streamed:
        assert_states_equal(
            state,
            eager[origin],
            f"({profile_name} seed={seed} origin={origin})",
        )
    # stream mode must not have retained the sweep
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------


class TestStreamEdgeCases:
    def test_empty_origin_iterable(self):
        graph = netgen_graph("tiny")
        cache = RoutingStateCache(graph, engine="compiled")
        assert list(cache.states_for_many(iter(()), stream=True)) == []
        stats = cache.stats()
        assert (stats.misses, stats.prefetch_chunks) == (0, 0)

    def test_batch_wider_than_origin_set(self):
        graph = netgen_graph("tiny")
        origins = sample_origins(graph, 5)
        cache = RoutingStateCache(graph, engine="compiled")
        pairs = list(cache.states_for_many(origins, batch=64, stream=True))
        assert [o for o, _ in pairs] == origins
        assert cache.stats().prefetch_chunks == 1
        reference = RoutingStateCache(graph)
        for origin, state in pairs:
            assert_states_equal(
                state, reference.state_for(origin), f"(origin={origin})"
            )

    def test_duplicate_origins_share_one_view(self):
        graph = netgen_graph("tiny")
        a, b = sample_origins(graph, 2)
        cache = RoutingStateCache(graph, engine="compiled")
        pairs = list(
            cache.states_for_many([a, a, b, a], batch=8, stream=True)
        )
        assert [o for o, _ in pairs] == [a, a, b, a]
        assert pairs[0][1] is pairs[1][1] is pairs[3][1]
        # the duplicated origin was propagated once, not three times
        assert cache.stats().misses == 2

    def test_abandoned_generator_releases_views(self):
        graph = netgen_graph("tiny")
        graph.compile()
        origins = sorted(graph.nodes())
        cache = RoutingStateCache(graph)
        # warm-up: one-time allocator/interpreter costs stay unmeasured
        for _origin, _state in cache.states_for_many(
            origins[:8], batch=8, stream=True
        ):
            pass
        gc.collect()
        tracemalloc.start()
        try:
            sweep = cache.states_for_many(origins, batch=8, stream=True)
            for _ in range(3):
                next(sweep)
            sweep.close()
            del sweep
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # abandoning mid-window must drop the window: the residual live
        # allocations are a small fraction of the in-flight peak, and the
        # cache kept nothing
        assert len(cache) == 0
        assert peak > 0 and current < peak / 2, (current, peak)

    def test_excluded_sweep_bypasses_tiers(self):
        graph = netgen_graph("tiny")
        origins = sample_origins(graph, 6)
        excluded = frozenset(sample_origins(graph, 40)[-2:]) - set(origins)
        cache = RoutingStateCache(graph, engine="compiled")
        cache.prefetch(origins)  # warm LRU with the *plain* states
        before = cache.stats()
        streamed = list(
            cache.states_for_many(
                origins, batch=4, stream=True, excluded=excluded
            )
        )
        after = cache.stats()
        # subgraph states must never be served from (or inserted into)
        # the plain-origin tiers
        assert after.hits == before.hits
        assert len(cache) == len(origins)  # only the prefetched states
        eager = dict(
            RoutingStateCache(graph, engine="compiled").states_for_many(
                origins, batch=4, stream=False, excluded=excluded
            )
        )
        for origin, state in streamed:
            assert_states_equal(
                state, eager[origin], f"(excluded origin={origin})"
            )


# ---------------------------------------------------------------------------
# consumer-level equivalence (the experiment aggregations)
# ---------------------------------------------------------------------------


class TestConsumersStreamEqualsEager:
    def test_reliance_summary_sweep_common_excluded(self, scenario):
        graph = scenario.graph
        origins = sample_origins(graph, 16, seed=2)
        common = scenario.tiers.hierarchy
        items = [(o, common - {o}) for o in origins]
        eager = reliance_summary_sweep(
            graph, items, engine="compiled", batch=8, stream=False
        )
        streamed = reliance_summary_sweep(
            graph, items, engine="compiled", batch=8, stream="on"
        )
        assert streamed == eager

    def test_hierarchy_free_summaries(self, scenario):
        graph = scenario.graph
        origins = sample_origins(graph, 8, seed=3)
        eager = hierarchy_free_reliance_summaries(
            graph, origins, scenario.tiers, engine="compiled", stream=False
        )
        streamed = hierarchy_free_reliance_summaries(
            graph, origins, scenario.tiers, engine="compiled", stream="on"
        )
        assert streamed == eager

    def test_global_hegemony(self, scenario):
        graph = scenario.graph
        targets = sample_origins(graph, 6, seed=4)
        origins = sample_origins(graph, 20, seed=5)
        eager = global_hegemony(
            graph,
            targets,
            origins=origins,
            engine="compiled",
            batch=8,
            stream=False,
        )
        streamed = global_hegemony(
            graph,
            targets,
            origins=origins,
            engine="compiled",
            batch=8,
            stream="on",
        )
        assert streamed == eager

    def test_global_hegemony_empty_origins(self, scenario):
        graph = scenario.graph
        targets = sample_origins(graph, 4, seed=6)
        eager = global_hegemony(
            graph, targets, origins=[], engine="compiled", stream=False
        )
        streamed = global_hegemony(
            graph, targets, origins=[], engine="compiled", stream="on"
        )
        assert streamed == eager

    def test_fig13_bars_sweep(self, scenario):
        graph = scenario.graph
        origins = sample_origins(graph, 12, seed=7)
        eager = fig13_bars_sweep(
            graph,
            origins,
            scenario.users,
            engine="compiled",
            batch=8,
            stream=False,
        )
        streamed = fig13_bars_sweep(
            graph,
            origins,
            scenario.users,
            engine="compiled",
            batch=8,
            stream="on",
        )
        assert streamed == eager

    def test_fig13_empty_origins(self, scenario):
        assert (
            fig13_bars_sweep(
                scenario.graph, [], scenario.users, stream="on"
            )
            == []
        )

    def test_reliance_empty_items(self, scenario):
        assert (
            reliance_summary_sweep(scenario.graph, [], stream="on") == []
        )

    def test_average_resilience_curve(self, scenario):
        graph = scenario.graph
        eager = average_resilience_curve(
            graph,
            random.Random(11),
            origins=6,
            leakers_per_origin=4,
            engine="compiled",
            batch=4,
            stream=False,
        )
        streamed = average_resilience_curve(
            graph,
            random.Random(11),
            origins=6,
            leakers_per_origin=4,
            engine="compiled",
            batch=4,
            stream="on",
        )
        assert streamed == eager
