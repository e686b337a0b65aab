"""Bounded-LRU behaviour of the routing-state cache.

The regression target: the cache used to grow without bound across a
many-origin sweep.  These tests pin the bound (eviction actually caps the
number of retained states), the LRU order, the transparent recomputation
of evicted origins, and the hit/miss/eviction counters.
"""

from __future__ import annotations

import pytest

from .conftest import assert_states_equal, build_mini
from repro.bgpsim import RoutingStateCache, multiorigin


@pytest.fixture
def graph():
    return build_mini()[0]


class TestUnbounded:
    def test_default_keeps_everything(self, graph):
        cache = RoutingStateCache(graph)
        origins = sorted(graph.nodes())
        for origin in origins:
            cache.state_for(origin)
        assert len(cache) == len(origins)
        stats = cache.stats()
        assert stats.maxsize is None
        assert stats.evictions == 0
        assert stats.misses == len(origins)

    def test_repeated_requests_hit(self, graph):
        cache = RoutingStateCache(graph)
        first = cache.state_for(1)
        second = cache.state_for(1)
        assert first is second
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)


class TestBounded:
    def test_size_is_capped(self, graph):
        cache = RoutingStateCache(graph, maxsize=3)
        origins = sorted(graph.nodes())
        assert len(origins) > 3
        for origin in origins:
            cache.state_for(origin)
        assert len(cache) == 3
        stats = cache.stats()
        assert stats.size == 3
        assert stats.evictions == len(origins) - 3

    def test_lru_eviction_order(self, graph):
        cache = RoutingStateCache(graph, maxsize=2)
        cache.state_for(1)
        cache.state_for(2)
        cache.state_for(1)  # 2 is now least recently used
        cache.state_for(11)
        assert 1 in cache and 11 in cache and 2 not in cache

    def test_evicted_origin_recomputes_identically(self, graph):
        reference = RoutingStateCache(graph)
        cache = RoutingStateCache(graph, maxsize=1)
        origins = sorted(graph.nodes())[:4]
        first_pass = {o: cache.state_for(o) for o in origins}
        for origin in origins:
            recomputed = cache.state_for(origin)
            if origin != origins[-1]:
                assert recomputed is not first_pass[origin]
            assert_states_equal(
                recomputed,
                reference.state_for(origin),
                f"(recomputed origin={origin})",
            )

    def test_maxsize_validation(self, graph):
        with pytest.raises(ValueError):
            RoutingStateCache(graph, maxsize=0)
        with pytest.raises(ValueError):
            RoutingStateCache(graph, maxsize=-2)


class TestStats:
    def test_counters_and_hit_rate(self, graph):
        cache = RoutingStateCache(graph, maxsize=2)
        cache.state_for(1)
        cache.state_for(1)
        cache.state_for(2)
        cache.state_for(11)  # evicts 1
        cache.state_for(1)  # miss again
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 4
        assert stats.evictions == 2
        assert stats.hit_rate == pytest.approx(1 / 5)

    def test_empty_cache_hit_rate(self, graph):
        assert RoutingStateCache(graph).stats().hit_rate == 0.0

    def test_clear_resets(self, graph):
        cache = RoutingStateCache(graph, maxsize=2)
        cache.state_for(1)
        cache.state_for(1)
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)


class TestPrefetch:
    def test_prefetch_skips_cached(self, graph):
        cache = RoutingStateCache(graph)
        cache.state_for(1)
        computed = cache.prefetch([1, 2, 11])
        assert computed == 2
        assert len(cache) == 3

    def test_prefetch_respects_bound(self, graph):
        cache = RoutingStateCache(graph, maxsize=2)
        origins = sorted(graph.nodes())[:5]
        computed = cache.prefetch(origins)
        # only the *first* `maxsize` origins are worth computing: consumers
        # drain prefetched sweeps in input order, so these are the ones
        # read before any eviction; the rest are skipped, not
        # computed-then-evicted unread
        assert computed == 2
        assert len(cache) == 2
        assert origins[0] in cache and origins[1] in cache
        stats = cache.stats()
        assert stats.prefetch_skipped == 3
        assert stats.evictions == 0

    def test_prefetch_deduplicates(self, graph):
        cache = RoutingStateCache(graph)
        assert cache.prefetch([1, 1, 2, 2]) == 2

    def test_prefetch_chunks_to_batch_width(self, graph, monkeypatch):
        monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", 2)
        cache = RoutingStateCache(graph, engine="compiled")
        origins = sorted(graph.nodes())[:5]
        assert cache.prefetch(origins) == 5
        stats = cache.stats()
        assert stats.prefetch_chunks == 3  # ceil(5 / 2)
        assert stats.prefetch_skipped == 0

    def test_prefetch_batch_capped_at_maxsize(self, graph):
        cache = RoutingStateCache(graph, maxsize=3, engine="compiled")
        origins = sorted(graph.nodes())[:5]
        assert cache.prefetch(origins) == 3
        stats = cache.stats()
        # misses are truncated to the bound, so the 3 kept origins fit
        # one chunk
        assert stats.prefetch_chunks == 1
        assert stats.prefetch_skipped == 2
        assert all(origin in cache for origin in origins[:3])
