"""Differential harness: compiled propagation kernel ≡ reference engine.

The compiled engine (``repro.bgpsim.compiled``) re-implements the three
Gao-Rexford phases over flat integer-indexed arrays; it is only safe to
make it the default if it is *bit-for-bit* equivalent to the reference
dict-of-objects engine.  This module proves it on seeded
synthetic-Internet scenarios across several seeds and two sizes,
exercises multi-seed leak configurations with ``peer_locked`` /
``excluded`` / restricted ``export_to`` seeds, verifies error parity on
bad inputs, checks the ``CompiledRoutingState`` fast paths against the
materialized routes, and runs the parallel sweep with the compiled
engine against the serial reference.

Set ``REPRO_TEST_WORKERS`` to change the parallel worker count (CI runs
the harness at 2).
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from .conftest import (
    assert_states_equal,
    build_mini,
    netgen_graph,
    random_internet,
    sample_origins,
)
from repro.bgpsim import (
    ENGINES,
    CompiledRoutingState,
    RoutingStateCache,
    Seed,
    propagate,
    propagate_compiled,
    propagate_many,
    propagate_reference,
    resolve_engine,
)
from repro.topology import ASGraph

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))

#: (profile, scenario seed) — ≥3 seeds × 2 sizes, per the acceptance bar.
SCENARIOS = [
    ("tiny", 20200901),
    ("tiny", 7),
    ("tiny", 8),
    ("small", 20200901),
    ("small", 7),
    ("small", 8),
]


class TestEngineDispatch:
    def test_engines_are_the_fast_path_and_the_oracle(self, monkeypatch):
        assert ENGINES == ("compiled", "reference")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "compiled"
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("sideways")

    def test_resolve_engine_explicit(self):
        assert resolve_engine("compiled") == "compiled"
        assert resolve_engine("reference") == "reference"

    def test_resolve_engine_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "compiled"

    def test_resolve_engine_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine(None) == "reference"
        # an explicit argument beats the environment
        assert resolve_engine("compiled") == "compiled"

    def test_resolve_engine_rejects_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("vectorized")
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(None)

    def test_propagate_dispatches(self, mini_graph):
        compiled = propagate(mini_graph, Seed(asn=100), engine="compiled")
        reference = propagate(mini_graph, Seed(asn=100), engine="reference")
        assert isinstance(compiled, CompiledRoutingState)
        assert not isinstance(reference, CompiledRoutingState)
        assert_states_equal(reference, compiled, "(dispatch)")


class TestDifferentialNetgen:
    """Reference vs compiled on seeded synthetic-Internet scenarios."""

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS)
    def test_states_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        origins = sample_origins(graph, 40, seed=seed)
        for origin in origins:
            reference = propagate_reference(graph, (Seed(asn=origin),))
            compiled = propagate_compiled(graph, (Seed(asn=origin),))
            assert_states_equal(
                reference,
                compiled,
                f"({profile_name}, seed={seed}, origin={origin})",
            )

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS)
    def test_multi_seed_leaks_identical(self, profile_name, seed):
        """Leak tasks with peer_locked, excluded and restricted export_to."""
        graph = netgen_graph(profile_name, seed=seed)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed * 31 + 1)
        for trial in range(8):
            origin, leaker = rng.sample(nodes, 2)
            export = None
            if trial % 2:  # announce to a restricted neighbor subset
                neighbors = sorted(graph.neighbors(origin))
                if neighbors:
                    export = frozenset(
                        rng.sample(
                            neighbors, k=max(1, len(neighbors) // 2)
                        )
                    )
            seeds = (
                Seed(asn=origin, key="origin", export_to=export),
                Seed(asn=leaker, key="leak", initial_length=rng.randint(0, 3)),
            )
            excluded = frozenset(
                a
                for a in rng.sample(nodes, 6)
                if a not in (origin, leaker)
            )
            locked = frozenset(rng.sample(nodes, 10))
            kwargs = dict(
                excluded=excluded, peer_locked=locked, locked_origin=origin
            )
            reference = propagate_reference(graph, seeds, **kwargs)
            compiled = propagate_compiled(graph, seeds, **kwargs)
            assert_states_equal(
                reference,
                compiled,
                f"({profile_name}, seed={seed}, leak {origin}->{leaker})",
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_internet_identical(self, seed):
        rng = random.Random(seed)
        graph = random_internet(rng, n_tier1=4, n_transit=8, n_edge=40)
        for origin in sorted(graph.nodes()):
            reference = propagate_reference(graph, (Seed(asn=origin),))
            compiled = propagate_compiled(graph, (Seed(asn=origin),))
            assert_states_equal(
                reference, compiled, f"(random seed={seed}, origin={origin})"
            )

    def test_initial_length_and_hierarchy_seed(self, mini_graph):
        seeds = (Seed(asn=100, key="origin", initial_length=2),)
        assert_states_equal(
            propagate_reference(mini_graph, seeds),
            propagate_compiled(mini_graph, seeds),
            "(initial_length)",
        )


class TestErrorParity:
    """Both engines reject bad input with the same exception and message."""

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_no_seeds(self, mini_graph, engine):
        with pytest.raises(ValueError, match="at least one seed"):
            propagate(mini_graph, (), engine=engine)

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_unknown_seed(self, mini_graph, engine):
        with pytest.raises(KeyError, match="987654"):
            propagate(mini_graph, Seed(asn=987654), engine=engine)

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_excluded_seed(self, mini_graph, engine):
        with pytest.raises(ValueError, match="excluded"):
            propagate(
                mini_graph, Seed(asn=100), excluded={100}, engine=engine
            )

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_duplicate_seed(self, mini_graph, engine):
        seeds = (Seed(asn=100, key="a"), Seed(asn=100, key="b"))
        with pytest.raises(ValueError, match="duplicate seed"):
            propagate(mini_graph, seeds, engine=engine)


class TestCompiledStateAPI:
    """The lazy array-backed state behaves exactly like the reference."""

    def _pair(self):
        graph = netgen_graph("tiny", seed=7)
        seeds = (Seed(asn=sorted(graph.nodes())[0]),)
        return graph, propagate_reference(graph, seeds), propagate_compiled(
            graph, seeds
        )

    def test_fast_paths_match_before_materialization(self):
        graph, reference, compiled = self._pair()
        # exercise the array fast paths *before* touching .routes
        assert compiled._materialized is None
        assert compiled.reachable_ases() == reference.reachable_ases()
        for asn in sorted(graph.nodes()) + [987654]:
            assert compiled.has_route(asn) == reference.has_route(asn)
            assert compiled.path_length(asn) == reference.path_length(asn)
            assert compiled.origins_at(asn) == reference.origins_at(asn)
        # contains_path reads each hop through route(): agreement on paths
        # that are contained and on paths that are not
        (seed,) = reference.seed_asns
        outcomes = {True: 0, False: 0}
        for asn in sample_origins(graph, 15, seed=3):
            for path in reference.enumerate_best_paths(asn, limit=5):
                candidates = [path, path[:-1], path + (asn,)]
                if len(path) > 2:
                    node, parent = path[0], path[1]
                    others = sorted(
                        set(graph.neighbors(node))
                        - reference.route(node).parents
                    )
                    for other in others[:2]:  # a swapped parent
                        candidates.append((node, other) + path[2:])
                for candidate in candidates:
                    want = reference.contains_path(candidate)
                    assert compiled.contains_path(candidate) == want
                    outcomes[want] += 1
        assert outcomes[True] and outcomes[False]
        assert compiled.contains_path((seed,))
        assert not compiled.contains_path(())
        assert compiled._materialized is None  # still not materialized

    def test_dag_utilities_match(self):
        graph, reference, compiled = self._pair()
        for asn in sample_origins(graph, 15, seed=3):
            assert compiled.count_best_paths(asn) == (
                reference.count_best_paths(asn)
            )
            assert sorted(compiled.enumerate_best_paths(asn)) == sorted(
                reference.enumerate_best_paths(asn)
            )
            for path in reference.enumerate_best_paths(asn, limit=5):
                assert compiled.contains_path(path)

    def test_pickle_roundtrip(self):
        _, reference, compiled = self._pair()
        compiled.routes  # materialize, then check pickling drops the dict
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._materialized is None
        assert_states_equal(reference, clone, "(pickle roundtrip)")

    def test_pickled_state_smaller_than_reference(self):
        _, reference, compiled = self._pair()
        assert len(pickle.dumps(compiled)) < len(pickle.dumps(reference))


class TestParallelCompiled:
    """Parallel compiled sweep ≡ serial reference sweep."""

    def test_propagate_many(self):
        graph = netgen_graph("small", seed=7)
        origins = sample_origins(graph, 30, seed=2)
        reference = [
            propagate_reference(graph, (Seed(asn=o),)) for o in origins
        ]
        parallel = list(
            propagate_many(
                graph, origins, workers=WORKERS, engine="compiled"
            )
        )
        for origin, r, p in zip(origins, reference, parallel):
            assert isinstance(p, CompiledRoutingState)
            assert_states_equal(r, p, f"(parallel compiled, origin={origin})")

    def test_cache_stores_compact_states(self):
        graph = netgen_graph("tiny", seed=8)
        origins = sample_origins(graph, 10, seed=4)
        cache = RoutingStateCache(graph, engine="compiled")
        cache.prefetch(origins, workers=WORKERS)
        for origin in origins:
            state = cache.state_for(origin)
            assert isinstance(state, CompiledRoutingState)
            assert_states_equal(
                propagate_reference(graph, (Seed(asn=origin),)),
                state,
                f"(cache origin={origin})",
            )

    def test_reference_engine_cache(self):
        graph, _ = build_mini()
        cache = RoutingStateCache(graph, engine="reference")
        assert not isinstance(cache.state_for(100), CompiledRoutingState)


class TestDeepChainRegression:
    """count_best_paths must not recurse (satellite: recursion blowup)."""

    CHAIN = 3000  # far beyond CPython's default ~1000 recursion limit

    def _chain_graph(self) -> ASGraph:
        graph = ASGraph()
        for i in range(self.CHAIN):
            graph.add_p2c(i, i + 1)  # 0 <- 1 <- ... <- CHAIN
        return graph

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_deep_provider_chain(self, engine):
        graph = self._chain_graph()
        state = propagate(graph, Seed(asn=self.CHAIN), engine=engine)
        assert state.path_length(0) == self.CHAIN
        assert state.count_best_paths(0) == 1
        assert state.origins_at(0) == {"origin"}
