"""Differential harness: array-native metric kernels ≡ dict references.

The kernels in ``repro.bgpsim.metrics_kernel`` compute path counts,
reliance (§7), hegemony cross-fractions (§10), and Fig. 13 path-length
histograms directly on a compiled state's flat arrays, never touching
``state.routes``.  They are only safe to dispatch to if they reproduce
the dict reference implementations exactly.  This module proves it:

* **exact level** — kernel output equals the dict reference in
  ``Fraction`` mode on seeded synthetic-Internet scenarios (≥3 seeds ×
  2 sizes), for single-origin compiled states and for the two-seed
  state of a route leak;
* **float level** — the float paths are *bit-identical*: both sides
  accumulate in the same canonical order (nodes by (length, ASN),
  parents ascending), which also pins results across set/dict insertion
  orders (the shuffled-insertion regression below);
* **plumbing level** — the DAG and counts are cached per state and
  dropped on pickling, ``routes`` is never materialized by a kernel
  pass, and the engine knob threaded through the pathlen and hegemony
  sweeps changes nothing but wall-clock.
"""

from __future__ import annotations

import pickle
import random

import pytest

from .conftest import netgen_graph, sample_origins
from repro.bgpsim import (
    CompiledRoutingState,
    Seed,
    cross_fractions_kernel,
    dag_of,
    is_array_state,
    length_histogram_kernel,
    path_counts_kernel,
    propagate,
    propagate_compiled,
    reliance_kernel,
    routed_count_kernel,
)
from repro.bgpsim.metrics_kernel import path_counts_indexed
from repro.bgpsim.routes import NodeRoute, RoutingState
from repro.core.hegemony import global_hegemony, path_cross_fractions
from repro.core.metrics import reachability_from_state
from repro.core.pathlen import (
    path_length_distribution,
    path_length_histogram,
)
from repro.core.reliance import (
    _path_counts_routes,
    _reliance_from_routes,
    path_counts,
    reliance_from_state,
    summarize_reliance,
    summarize_reliance_from_state,
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


def _states(graph, origin, excluded=frozenset()):
    """(reference dict state, compiled array state) for one origin."""
    seed = Seed(asn=origin, key="origin")
    ref = propagate(graph, seed, excluded=excluded, engine="reference")
    compiled = propagate(graph, seed, excluded=excluded, engine="compiled")
    return ref, compiled


def _leak_states(graph, origin, leaker):
    """(reference, compiled) two-seed states for one leak."""
    legit = Seed(asn=origin, key="origin")
    leak = Seed(asn=leaker, key="leak", initial_length=0)
    compiled = propagate_compiled(graph, (legit, leak), locked_origin=origin)
    ref = propagate(graph, (legit, leak), engine="reference")
    return ref, compiled


# ---------------------------------------------------------------------------
# differential: kernels ≡ dict reference
# ---------------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_compiled_state_kernels_match_reference(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        for origin in sample_origins(graph, 3, seed=seed):
            ref, compiled = _states(graph, origin)
            assert isinstance(compiled, CompiledRoutingState)

            # path counts: one forward pass ≡ the sorted-dict reference
            assert path_counts_kernel(compiled) == _path_counts_routes(ref)

            # reliance, exact Fraction mode (no float rounding to hide in)
            assert reliance_kernel(compiled, exact=True) == (
                _reliance_from_routes(ref, exact=True)
            )

            # reliance restricted to a receiver subset (plus strangers,
            # which both sides must ignore)
            receivers = sample_origins(graph, 5, seed=seed + 1) + [origin, -1]
            assert reliance_kernel(compiled, receivers=receivers, exact=True) == (
                _reliance_from_routes(ref, receivers=receivers, exact=True)
            )

            # hegemony cross-fractions for a handful of targets
            for target in sample_origins(graph, 4, seed=seed + 2) + [-1]:
                assert cross_fractions_kernel(compiled, target) == (
                    path_cross_fractions(ref, target)
                )

            # Fig. 13 path-length histogram, unweighted and weighted
            assert length_histogram_kernel(compiled) == (
                path_length_histogram(ref)
            )
            weights = {asn: (asn % 7) / 3 for asn in graph.nodes()}
            restrict = set(sample_origins(graph, 20, seed=seed + 3))
            assert length_histogram_kernel(
                compiled, weights=weights, restrict_to=restrict
            ) == path_length_histogram(
                ref, weights=weights, restrict_to=restrict
            )

            # the kernels never materialized the routes dict
            assert compiled._materialized is None

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_float_paths_are_bit_identical(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        for origin in sample_origins(graph, 3, seed=seed + 4):
            ref, compiled = _states(graph, origin)
            kernel = reliance_kernel(compiled)
            reference = _reliance_from_routes(ref)
            assert kernel == reference
            # == on floats is exact: every value is bit-for-bit the same
            assert all(kernel[a] == reference[a] for a in reference)
            for target in sample_origins(graph, 3, seed=seed + 5):
                assert cross_fractions_kernel(compiled, target) == (
                    path_cross_fractions(ref, target)
                )
            assert compiled._materialized is None

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_leak_state_kernels_match_reference(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 31 + 1)
        nodes = sorted(graph.nodes())
        origin, leaker = rng.sample(nodes, 2)
        ref, leak = _leak_states(graph, origin, leaker)
        assert is_array_state(leak)

        assert path_counts_kernel(leak) == _path_counts_routes(ref)
        assert reliance_kernel(leak, exact=True) == (
            _reliance_from_routes(ref, exact=True)
        )
        assert reliance_kernel(leak) == _reliance_from_routes(ref)
        for target in (origin, leaker, *sample_origins(graph, 3, seed=seed)):
            assert cross_fractions_kernel(leak, target) == (
                path_cross_fractions(ref, target)
            )
        assert length_histogram_kernel(leak) == path_length_histogram(ref)
        assert routed_count_kernel(leak) == len(ref.reachable_ases())
        assert leak._materialized is None

    @pytest.mark.parametrize("profile,seed", [("tiny", 20200901), ("small", 7)])
    def test_public_metrics_dispatch_to_kernels(self, profile, seed):
        """The `core` entry points route array states through the kernels
        (routes stays unmaterialized) and plain states through the dicts."""
        graph = netgen_graph(profile, seed=seed)
        origin = sample_origins(graph, 1, seed=seed)[0]
        ref, compiled = _states(graph, origin)

        assert path_counts(compiled) == path_counts(ref)
        assert reliance_from_state(compiled) == reliance_from_state(ref)
        assert path_length_histogram(compiled) == path_length_histogram(ref)
        assert reachability_from_state(compiled) == (
            reachability_from_state(ref)
        )
        assert reachability_from_state(ref) == len(ref.reachable_ases())
        assert summarize_reliance_from_state(compiled) == (
            summarize_reliance(reliance_from_state(ref))
        )
        assert compiled._materialized is None


# ---------------------------------------------------------------------------
# determinism: float results don't depend on insertion order
# ---------------------------------------------------------------------------

def _shuffled_clone(state: RoutingState, rng: random.Random) -> RoutingState:
    """A plain-state clone with routes and parent sets rebuilt in a
    different (shuffled) insertion order."""
    clone = RoutingState(state.seeds)
    items = list(state.routes.items())
    rng.shuffle(items)
    for asn, node in items:
        parents = list(node.parents)
        rng.shuffle(parents)
        rebuilt: set[int] = set()
        for parent in parents:
            rebuilt.add(parent)
        clone.routes[asn] = NodeRoute(
            route_class=node.route_class,
            length=node.length,
            parents=rebuilt,
            origins=set(node.origins),
        )
    return clone


class TestDeterministicAccumulation:
    @pytest.mark.parametrize("profile,seed", [("tiny", 7), ("small", 8)])
    def test_shuffled_insertion_order_same_floats(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        origin = sample_origins(graph, 1, seed=seed)[0]
        state = propagate(
            graph, Seed(asn=origin, key="origin"), engine="reference"
        )
        for trial in range(3):
            clone = _shuffled_clone(state, random.Random(seed + trial))
            assert _reliance_from_routes(clone) == (
                _reliance_from_routes(state)
            )
            for target in sample_origins(graph, 3, seed=seed + trial):
                assert path_cross_fractions(clone, target) == (
                    path_cross_fractions(state, target)
                )


# ---------------------------------------------------------------------------
# caching and serialization plumbing
# ---------------------------------------------------------------------------

class TestDagCaching:
    def test_dag_and_counts_cached_on_state(self):
        graph = netgen_graph("tiny", seed=7)
        origin = sample_origins(graph, 1, seed=7)[0]
        state = propagate(
            graph, Seed(asn=origin, key="origin"), engine="compiled"
        )
        dag = dag_of(state)
        assert dag_of(state) is dag
        counts = path_counts_indexed(state)
        assert path_counts_indexed(state) is counts
        # every kernel reuses the same cached DAG
        reliance_kernel(state)
        cross_fractions_kernel(state, origin)
        assert state._metric_dag is dag

    def test_pickling_drops_kernel_caches(self):
        graph = netgen_graph("tiny", seed=7)
        origin = sample_origins(graph, 1, seed=7)[0]
        state = propagate(
            graph, Seed(asn=origin, key="origin"), engine="compiled"
        )
        before = reliance_kernel(state)
        clone = pickle.loads(pickle.dumps(state))
        assert clone._metric_dag is None
        assert clone._metric_counts is None
        assert clone._materialized is None
        assert reliance_kernel(clone) == before

    def test_dag_of_rejects_plain_states(self):
        graph = netgen_graph("tiny", seed=7)
        origin = sample_origins(graph, 1, seed=7)[0]
        state = propagate(
            graph, Seed(asn=origin, key="origin"), engine="reference"
        )
        with pytest.raises(TypeError):
            dag_of(state)
        with pytest.raises(TypeError):
            routed_count_kernel(state)


# ---------------------------------------------------------------------------
# the engine knob on the sweeps (pathlen + hegemony)
# ---------------------------------------------------------------------------

class TestSweepKnobs:
    def test_pathlen_distribution_engine_invariant(self):
        graph = netgen_graph("tiny", seed=20200901)
        origins = sample_origins(graph, 4, seed=1)
        ref = path_length_distribution(graph, origins, engine="reference")
        compiled = path_length_distribution(
            graph, origins, engine="compiled"
        )
        assert ref == compiled

    def test_global_hegemony_engine_invariant(self):
        graph = netgen_graph("tiny", seed=7)
        targets = sample_origins(graph, 5, seed=3)
        kwargs = dict(sample=6, rng=random.Random(5))
        base = global_hegemony(graph, targets, engine="compiled", **kwargs)
        kwargs = dict(sample=6, rng=random.Random(5))
        ref = global_hegemony(graph, targets, engine="reference", **kwargs)
        assert base == ref

    def test_cross_fractions_counts_reuse_is_identical(self):
        """Passing precomputed counts down the dict path (the quadratic →
        linear hegemony satellite) changes nothing about the result."""
        graph = netgen_graph("tiny", seed=8)
        origin, target, other = sample_origins(graph, 3, seed=4)
        state = propagate(
            graph, Seed(asn=origin, key="origin"), engine="reference"
        )
        counts = path_counts(state)
        for tgt in (target, other):
            assert path_cross_fractions(state, tgt, counts=counts) == (
                path_cross_fractions(state, tgt)
            )
