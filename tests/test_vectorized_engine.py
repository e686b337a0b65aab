"""Differential harness: numpy kernels ≡ the reference engine and dict metrics.

The numpy kernels of :mod:`repro.bgpsim.vectorized` serve every
``propagate_compiled`` / ``propagate_batch`` / ``dag_of`` / metric-kernel
call, so the only acceptable behaviour is bit-for-bit equivalence with
the oracle: :func:`~repro.bgpsim.engine.propagate_reference` and the dict
metrics of :mod:`repro.core`.  This module proves it on seeded
synthetic-Internet scenarios (≥3 seeds × 2 sizes):

* full propagation states (including :class:`DeltaRoutingState` leak
  injections and :class:`BatchOriginView` per-origin views);
* every metric kernel output — counts and histograms by dict equality,
  reliance / hegemony by **float byte equality** (the kernels replay the
  dict metrics' accumulation order);
* the one input the float64 sweeps hand back: tied-best-path counts
  beyond 2**53, served by the big-int array loops of
  :mod:`repro.bgpsim.metrics_kernel`;
* the sparse hegemony rows at several trims and on their edge cases
  (no samples, unrouted targets, all-zero columns, the origin among the
  targets).
"""

from __future__ import annotations

import pytest

from .conftest import assert_states_equal, netgen_graph, sample_origins
from repro.bgpsim import (
    Seed,
    leak_seed,
    propagate_batch,
    propagate_compiled,
    propagate_delta,
    propagate_reference,
)
from repro.bgpsim import metrics_kernel as mk
from repro.bgpsim import vectorized as vec
from repro.core.hegemony import _hegemony_values, path_cross_fractions
from repro.core.pathlen import path_length_histogram
from repro.core.reliance import _path_counts_routes, _reliance_from_routes
from repro.topology import ASGraph

#: (profile, scenario seed) — ≥3 seeds × 2 sizes, per the acceptance bar.
SCENARIOS = [
    ("tiny", 20200901),
    ("tiny", 7),
    ("tiny", 8),
    ("small", 20200901),
    ("small", 7),
    ("small", 8),
]


def _hex(values: dict) -> dict:
    """Float values as exact hex strings."""
    return {key: value.hex() for key, value in values.items()}


def _kernel_outputs(state, origin, targets):
    """Every metric kernel output of an array state, floats as bytes."""
    return {
        "counts": mk.path_counts_kernel(state),
        "reliance": _hex(mk.reliance_kernel(state)),
        "hegemony": _hegemony_values(state, origin, targets).tobytes(),
        "histogram": mk.length_histogram_kernel(state),
        "routed": mk.routed_count_kernel(state),
    }


def _dict_outputs(ref, origin, targets):
    """The same outputs from the dict metrics on a reference state."""
    return {
        "counts": _path_counts_routes(ref),
        "reliance": _hex(_reliance_from_routes(ref)),
        "hegemony": _hegemony_values(ref, origin, targets).tobytes(),
        "histogram": path_length_histogram(ref),
        "routed": len(ref.reachable_ases()),
    }


class TestVectorizedDifferential:
    @pytest.mark.parametrize("profile_name,seed", SCENARIOS)
    def test_propagation_states_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed)
        cg = graph.compile()
        for origin in sample_origins(graph, 6, seed=seed):
            seeds = (Seed(asn=origin),)
            assert_states_equal(
                propagate_reference(graph, seeds),
                propagate_compiled(cg, seeds),
                f"({profile_name}/{seed} origin {origin})",
            )

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS)
    def test_metric_kernels_bit_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed)
        cg = graph.compile()
        origins = sample_origins(graph, 4, seed=seed)
        targets = tuple(sample_origins(graph, 8, seed=seed + 1))
        for origin in origins:
            seeds = (Seed(asn=origin),)
            fast = _kernel_outputs(
                propagate_compiled(cg, seeds), origin, targets
            )
            oracle = _dict_outputs(
                propagate_reference(graph, seeds), origin, targets
            )
            assert fast == oracle, (
                f"metric outputs diverged ({profile_name}/{seed} "
                f"origin {origin})"
            )

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS[3:])
    def test_delta_states_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed)
        origins = sample_origins(graph, 4, seed=seed)
        leakers = sample_origins(graph, 4, seed=seed + 1)
        for origin, leaker in zip(origins, leakers):
            if origin == leaker:
                continue
            legit = Seed(asn=origin)
            baseline = propagate_compiled(graph.compile(), (legit,))
            leak = leak_seed(graph, origin, leaker)
            try:
                delta = propagate_delta(graph, baseline, leak)
            except ValueError:
                continue  # config outside the delta contract: skip pair
            assert_states_equal(
                propagate_reference(graph, (legit, leak)),
                delta,
                f"(delta {profile_name}/{seed} {origin}->{leaker})",
            )

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS[3:])
    def test_batch_views_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed)
        origins = sample_origins(graph, 8, seed=seed)
        targets = tuple(sample_origins(graph, 6, seed=seed + 1))
        batch = propagate_batch(graph, origins)
        for origin, view in batch.views():
            oracle = _dict_outputs(
                propagate_reference(graph, Seed(asn=origin)), origin, targets
            )
            assert _kernel_outputs(view, origin, targets) == oracle, (
                f"batch view diverged ({profile_name}/{seed} "
                f"origin {origin})"
            )


def _provider_ladder(stages: int) -> tuple[ASGraph, int]:
    """An origin under ``stages`` stages of two ASes each, every AS a
    customer of both ASes one stage up: the top stage holds
    ``2 ** (stages - 1)`` tied-best paths per AS."""
    graph = ASGraph()
    origin = 1
    below = (origin,)
    for stage in range(stages):
        above = (10 + 2 * stage, 11 + 2 * stage)
        for provider in above:
            for customer in below:
                graph.add_p2c(provider, customer)
        below = above
    return graph, origin


class TestExactFloatFallback:
    def test_vector_kernels_return_none_beyond_exact_floats(self):
        # 56 stages put 2**55 tied-best paths at the top, past the 2**53
        # where int -> float64 casts round: the numpy DAG builder and
        # kernels hand back, and the big-int array loops must still match
        # the dict metrics exactly
        graph, origin = _provider_ladder(56)
        seed = Seed(asn=origin)
        state = propagate_compiled(graph, seed)
        ref = propagate_reference(graph, seed)
        assert vec.state_sweep(state).bad[0]
        batch = propagate_batch(graph, (origin,))
        assert vec.build_metric_dag_vector(batch, (), 0.1) == [None]
        assert max(mk.path_counts_kernel(state).values()) == 1 << 55

        assert mk.path_counts_kernel(state) == _path_counts_routes(ref)
        assert _hex(mk.reliance_kernel(state)) == _hex(
            _reliance_from_routes(ref)
        )
        assert mk.length_histogram_kernel(state) == path_length_histogram(ref)
        targets = (10, 11, 64, 65, 120, 121)
        for target in targets:
            assert _hex(mk.cross_fractions_kernel(state, target)) == _hex(
                path_cross_fractions(ref, target)
            )
        assert (
            _hegemony_values(state, origin, targets).tobytes()
            == _hegemony_values(ref, origin, targets).tobytes()
        )


def _star(leaves: int) -> ASGraph:
    """Origin 1 single-homed to provider 2, whose other customers are
    ``leaves`` stubs: every leaf's only path crosses 2."""
    graph = ASGraph()
    graph.add_p2c(2, 1)
    for leaf in range(3, 3 + leaves):
        graph.add_p2c(2, leaf)
    return graph


class TestHegemonyRows:
    """The sparse hegemony rows (only nonzero crossing fractions are
    sorted and summed) equal the dict path's sorted trimmed means."""

    #: the paper's 0.1 and others below 0.5, plus two at or above 0.5,
    #: where the trimmed slice is empty and every sample is kept
    TRIMS = (0.0, 0.1, 0.25, 0.49, 0.5, 0.75)

    def _assert_rows(self, graph, origin, targets, excluded=frozenset()):
        seeds = (Seed(asn=origin),)
        fast = propagate_compiled(graph, seeds, excluded=excluded)
        ref = propagate_reference(graph, seeds, excluded=excluded)
        for trim in self.TRIMS:
            sweep = vec.state_sweep(fast)
            assert not sweep.bad[0]  # the numpy path, not a fallback
            row = sweep.hegemony_row(origin, targets, trim)
            want = _hegemony_values(ref, origin, targets, trim).tobytes()
            assert row.tobytes() == want, (origin, trim)
            got = _hegemony_values(fast, origin, targets, trim).tobytes()
            assert got == want, (origin, trim)

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS[::2])
    def test_netgen_rows(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed)
        stubs = [a for a in sorted(graph.nodes()) if graph.is_stub(a)]
        targets = tuple(sample_origins(graph, 10, seed=seed + 1))
        for origin in sample_origins(graph, 4, seed=seed):
            # the origin itself (NaN) and a stub nobody routes through
            # (an all-zero column) ride along
            row_targets = targets + (origin, stubs[-1])
            self._assert_rows(graph, origin, row_targets)

    def test_every_sample_nonzero(self):
        # all leaves cross the target: the trim cuts nonzero samples at
        # the low end as well as the high end
        self._assert_rows(_star(9), 1, (2, 1, 3))

    def test_kept_slice_empty(self):
        # only the origin and the target are routed: no samples at all
        graph = ASGraph()
        graph.add_p2c(2, 1)
        self._assert_rows(graph, 1, (2, 1))

    def test_unrouted_targets(self):
        # 21 hears 1 only across two peer hops, which is not valley-free,
        # and 9 is excluded: both are unrouted targets
        graph = _star(4)
        graph.add_p2p(1, 20)
        graph.add_p2p(20, 21)
        graph.add_p2c(9, 3)
        self._assert_rows(graph, 1, (21, 2, 9, 20), excluded={9})
