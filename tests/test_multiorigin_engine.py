"""Differential harness: bit-parallel multi-origin kernel ≡ per-origin
compiled engine.

``propagate_batch`` (``repro.bgpsim.multiorigin``) runs one level-by-level
sweep for a whole batch of origins, tracking per-AS origin bitmasks; every
per-origin :class:`BatchOriginView` must be *bit-for-bit* equivalent to
the state ``propagate_compiled`` computes for that origin alone.  This
module proves full-state equality on seeded synthetic-Internet scenarios
(≥3 seeds × 2 sizes), for batch widths {1, 64, non-power-of-two} with
ragged final batches, checks ``to_compiled()`` holds the per-origin
kernel's exact arrays (typecodes and bytes) at mask widths around the
64-bit word edges, checks metric-kernel outputs are bit-identical on
batch views, verifies the sweep consumers produce identical artifacts at
batch widths 1 and 8, and pins error parity and the views' laziness.
The sweep consumers are checked against the reference engine in
``tests/test_sweep_oracle.py``.
"""

from __future__ import annotations

import pickle
import random

import pytest

from .conftest import (
    assert_states_equal,
    build_mini,
    netgen_graph,
    sample_origins,
)
from repro.bgpsim import (
    DEFAULT_BATCH,
    BatchOriginView,
    CompiledRoutingState,
    RoutingStateCache,
    Seed,
    cross_fractions_kernel,
    is_array_state,
    length_histogram_kernel,
    path_counts_kernel,
    propagate_batch,
    propagate_compiled,
    multiorigin,
    propagate_origins,
    reliance_kernel,
    resolve_batch,
    routed_count_kernel,
)

#: (profile, scenario seed) — ≥3 seeds × 2 sizes, per the acceptance bar.
SCENARIOS = [
    ("tiny", 20200901),
    ("tiny", 7),
    ("tiny", 8),
    ("small", 20200901),
    ("small", 7),
    ("small", 8),
]


class TestResolveBatch:
    def test_default(self):
        assert resolve_batch() == DEFAULT_BATCH == 256


class TestDifferentialNetgen:
    """Every view of one batched sweep ≡ its per-origin compiled state."""

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS)
    def test_views_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        origins = sample_origins(graph, 40, seed=seed)
        batch = propagate_batch(graph, origins)
        assert batch.width == 40
        seen = []
        for origin, view in batch.views():
            seen.append(origin)
            assert isinstance(view, BatchOriginView)
            assert_states_equal(
                view,
                propagate_compiled(graph, (Seed(asn=origin),)),
                f"({profile_name}, seed={seed}, origin={origin})",
            )
        assert seen == list(origins)

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS[:3])
    def test_shared_excluded_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed * 17 + 3)
        excluded = frozenset(rng.sample(nodes, 5))
        origins = [
            o for o in sample_origins(graph, 30, seed=seed)
            if o not in excluded
        ]
        batch = propagate_batch(graph, origins, excluded=excluded)
        for origin, view in batch.views():
            assert_states_equal(
                view,
                propagate_compiled(
                    graph, (Seed(asn=origin),), excluded=excluded
                ),
                f"({profile_name}, seed={seed}, origin={origin}, excluded)",
            )

    def test_mini_topology_every_origin(self, mini_graph):
        origins = sorted(mini_graph.nodes())
        for origin, view in propagate_batch(mini_graph, origins).views():
            assert_states_equal(
                view,
                propagate_compiled(mini_graph, (Seed(asn=origin),)),
                f"(mini, origin={origin})",
            )

    def test_duplicate_origins_share_a_bit(self, mini_graph):
        batch = propagate_batch(mini_graph, [100, 201, 100])
        assert batch.width == 3
        assert_states_equal(
            batch.view(100),
            propagate_compiled(mini_graph, (Seed(asn=100),)),
            "(duplicate origin)",
        )


#: the arrays a compiled state stores, all checked by typecode and bytes
_STATE_ARRAYS = (
    "_route_class",
    "_length",
    "_parent_head",
    "_pool_parent",
    "_pool_next",
    "_routed",
)


def _assert_arrays_identical(a, b, context: str) -> None:
    """``a`` and ``b`` hold the same arrays, typecode and bytes alike."""
    for name in _STATE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y), f"{name} type differs {context}"
        assert getattr(x, "typecode", None) == getattr(y, "typecode", None), (
            f"{name} typecode differs {context}"
        )
        assert bytes(x) == bytes(y), f"{name} bytes differ {context}"


class TestViewArraysByteIdentical:
    """``view.to_compiled()`` holds exactly the arrays ``propagate_compiled``
    builds, at every mask width (inside one 64-bit word, at its edges and
    across several), with duplicate origins and a shared excluded set."""

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130, 256])
    def test_to_compiled_arrays(self, width):
        graph = netgen_graph("small", seed=8)
        nodes = sorted(graph.nodes())
        excluded = frozenset(random.Random(width).sample(nodes, 6))
        pool = [o for o in nodes if o not in excluded]
        distinct = random.Random(width + 1).sample(pool, max(width - 2, 1))
        # repeat two origins (or the only one) so some bits share an AS
        origins = (distinct + distinct[:2])[:width]
        for shared in (frozenset(), excluded):
            batch = propagate_batch(graph, origins, excluded=shared)
            oracle = {}
            for bit, origin in enumerate(origins):
                if origin not in oracle:
                    oracle[origin] = propagate_compiled(
                        graph, (Seed(asn=origin),), excluded=shared
                    )
                _assert_arrays_identical(
                    batch.view_at(bit).to_compiled(),
                    oracle[origin],
                    f"(width={width}, bit={bit}, AS{origin}, "
                    f"excluded={len(shared)})",
                )


class TestBatchWidths:
    """The sweep layer chunks correctly for any width, ragged tails incl."""

    @pytest.mark.parametrize("width", [1, 5, 64])
    def test_propagate_origins_any_width(self, width, monkeypatch):
        monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", width)
        graph = netgen_graph("tiny", seed=7)
        # 23 origins: ragged final batch for widths 5 (23 = 4×5 + 3)
        # and 64 (single under-full batch); width 1 is one bit per sweep
        origins = sample_origins(graph, 23, seed=9)
        pairs = list(propagate_origins(graph, origins))
        assert [origin for origin, _ in pairs] == list(origins)
        for origin, state in pairs:
            assert_states_equal(
                state,
                propagate_compiled(graph, (Seed(asn=origin),)),
                f"(width={width}, origin={origin})",
            )

    def test_reference_engine_falls_back_to_per_origin(self):
        graph, _ = build_mini()
        pairs = list(propagate_origins(graph, [100, 301], engine="reference"))
        for origin, state in pairs:
            assert not isinstance(state, CompiledRoutingState)
            assert_states_equal(
                state,
                propagate_compiled(graph, (Seed(asn=origin),)),
                f"(reference fallback, origin={origin})",
            )


class TestMetricKernelsOnViews:
    """PR-4 metric kernels run unchanged on batch views, bit-identical."""

    @pytest.mark.parametrize("profile_name,seed", [
        ("tiny", 7),
        ("small", 20200901),
    ])
    def test_kernels_bit_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        origins = sample_origins(graph, 16, seed=seed)
        targets = sample_origins(graph, 6, seed=seed + 1)
        batch = propagate_batch(graph, origins)
        for origin, view in batch.views():
            ref = propagate_compiled(graph, (Seed(asn=origin),))
            assert is_array_state(view)
            # floats compared with == on purpose: bit-identical, not close
            assert reliance_kernel(view) == reliance_kernel(ref)
            for target in targets:
                assert cross_fractions_kernel(view, target) == (
                    cross_fractions_kernel(ref, target)
                )
            assert path_counts_kernel(view) == path_counts_kernel(ref)
            assert length_histogram_kernel(view) == (
                length_histogram_kernel(ref)
            )
            assert routed_count_kernel(view) == routed_count_kernel(ref)


class TestBatchStateAPI:
    def _batch(self):
        graph = netgen_graph("tiny", seed=7)
        origins = sample_origins(graph, 12, seed=2)
        return graph, origins, propagate_batch(graph, origins)

    def test_mask_queries_stay_lazy(self):
        graph, origins, batch = self._batch()
        view = batch.view(origins[3])
        for asn in sorted(graph.nodes())[:50] + [987654]:
            view.has_route(asn)
            view.path_length(asn)
            view.route_class(asn)
        view.reachable_ases()
        # scalar queries answered straight off the batch masks: neither
        # the per-origin arrays nor the routes dict were built
        assert "_route_class" not in view.__dict__
        assert view._materialized is None

    def test_route_accessor_builds_arrays_not_routes_dict(self):
        graph, origins, batch = self._batch()
        view = batch.view(origins[0])
        ref = propagate_compiled(graph, (Seed(asn=origins[0]),))
        for asn in sorted(graph.nodes()):
            ours, theirs = view.route(asn), ref.route(asn)
            if theirs is None:
                assert ours is None
            else:
                assert ours.parents == theirs.parents
                assert ours.origins == theirs.origins
        assert view._materialized is None

    def test_view_pickles_as_standalone_compiled_state(self):
        graph, origins, batch = self._batch()
        view = batch.view(origins[1])
        clone = pickle.loads(pickle.dumps(view))
        assert type(clone) is CompiledRoutingState
        assert_states_equal(
            clone,
            propagate_compiled(graph, (Seed(asn=origins[1]),)),
            "(view pickle)",
        )

    def test_to_compiled_matches(self):
        graph, origins, batch = self._batch()
        compiled = batch.view(origins[2]).to_compiled()
        assert type(compiled) is CompiledRoutingState
        assert_states_equal(
            compiled,
            propagate_compiled(graph, (Seed(asn=origins[2]),)),
            "(to_compiled)",
        )



class TestErrorParity:
    """The batch kernel rejects bad input like the per-origin engines."""

    def test_unknown_origin(self, mini_graph):
        with pytest.raises(KeyError, match="987654"):
            propagate_batch(mini_graph, [100, 987654])

    def test_excluded_origin(self, mini_graph):
        with pytest.raises(ValueError, match="excluded"):
            propagate_batch(mini_graph, [100, 201], excluded={201})

    def test_no_origins(self, mini_graph):
        with pytest.raises(ValueError, match="at least one origin"):
            propagate_batch(mini_graph, [])

    def test_unknown_view_origin(self, mini_graph):
        batch = propagate_batch(mini_graph, [100])
        with pytest.raises(KeyError):
            batch.view(987654)


class TestSweepConsumers:
    """Sweep artifacts do not depend on the batch width: one-bit batches
    produce what 8-wide ones do, and the cache's prefetch serves batched
    views equal to per-origin states.  The sweeps against the reference
    engine are in ``test_sweep_oracle.py``."""

    def _scenario(self):
        graph = netgen_graph("tiny", seed=20200901)
        monitors = sample_origins(graph, 5, seed=1)
        origins = sample_origins(graph, 24, seed=2)
        prefixes = {
            origin: f"10.{i}.0.0/16" for i, origin in enumerate(origins)
        }
        return graph, monitors, origins, prefixes

    @staticmethod
    def _at_widths(monkeypatch, sweep):
        """``sweep()`` at batch widths 1 and 8, on the compiled engine."""
        results = []
        for width in (1, 8):
            monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", width)
            results.append(sweep())
        return results

    def test_collect_ribs_identical(self, monkeypatch):
        from repro.collectors import collect_ribs

        graph, monitors, _, prefixes = self._scenario()
        one_bit, batched = self._at_widths(
            monkeypatch,
            lambda: collect_ribs(
                graph,
                monitors,
                prefixes,
                rng=random.Random(7),
                engine="compiled",
            ),
        )
        assert len(one_bit) > 0
        assert one_bit == batched

    def test_global_hegemony_identical(self, monkeypatch):
        from repro.core.hegemony import global_hegemony

        graph, _, origins, _ = self._scenario()
        targets = origins[:4]
        one_bit, batched = self._at_widths(
            monkeypatch,
            lambda: global_hegemony(
                graph,
                targets=targets,
                sample=25,
                rng=random.Random(3),
                engine="compiled",
            ),
        )
        assert one_bit == batched  # bit-identical floats

    def test_reliance_summaries_identical(self, monkeypatch):
        from repro.core.reliance import hierarchy_free_reliance_summaries
        from repro.topology import infer_tiers

        graph, _, origins, _ = self._scenario()
        tiers = infer_tiers(graph, tier2_count=10, min_tier1_adjacency=1)
        one_bit, batched = self._at_widths(
            monkeypatch,
            lambda: hierarchy_free_reliance_summaries(
                graph, origins[:12], tiers, engine="compiled"
            ),
        )
        assert one_bit == batched

    def test_cache_prefetch_batched_states_identical(self, monkeypatch):
        monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", 8)
        graph, _, origins, _ = self._scenario()
        cache = RoutingStateCache(graph)
        cache.prefetch(origins)
        for origin in origins:
            assert_states_equal(
                cache.state_for(origin),
                propagate_compiled(graph, (Seed(asn=origin),)),
                f"(prefetched origin={origin})",
            )
