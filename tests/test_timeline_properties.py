"""Property-based timeline tests: apply ∘ revert is the identity.

Every event's :meth:`~repro.bgpsim.events.Event.apply` returns an
:class:`~repro.bgpsim.events.AppliedEvent` carrying its inverse.  On
random topologies and random event sequences, applying the whole
sequence and then the reversed inverses must return

* the ``ASGraph`` records (providers/customers/peers of every AS),
* the ``ASGraph.compile()`` CSR arrays (catching stale-CSR /
  missed-``_version``-bump bugs in the mutation paths), and
* the propagation state for any origin

exactly to their baselines.  Along the forward pass, every
topology-mutating step is also checked differentially (the post-event
state chained from the previous one ≡ the reference engine on the
mutated graph), so random *sequences* of chained mutations get the same
conformance bar as the curated scenarios in
``tests/test_event_engine.py``.  An event whose inverse could not
restore the graph exactly is refused before it touches it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgpsim import (
    ASFailure,
    ASRecover,
    Depeer,
    LinkDown,
    LinkUp,
    Seed,
    propagate_compiled,
    propagate_event,
    propagate_reference,
)
from repro.topology import ASGraph

from .conftest import assert_states_equal, random_internet

TIMELINE_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _graph_snapshot(graph):
    return {
        asn: (
            frozenset(graph.providers(asn)),
            frozenset(graph.customers(asn)),
            frozenset(graph.peers(asn)),
        )
        for asn in graph.nodes()
    }


def _csr_snapshot(graph):
    cg = graph.compile()
    return (
        tuple(cg.asns),
        bytes(cg.provider_off.tobytes()),
        bytes(cg.provider_nbr.tobytes()),
        bytes(cg.customer_off.tobytes()),
        bytes(cg.customer_nbr.tobytes()),
        bytes(cg.peer_off.tobytes()),
        bytes(cg.peer_nbr.tobytes()),
    )


def _random_event(graph, rng, origin):
    """A random applicable topology event on the current graph state."""
    nodes = sorted(graph.nodes())
    for _ in range(50):
        kind = rng.randrange(4)
        if kind == 0:
            edges = [
                (a, b)
                for a in nodes
                for b in graph.customers(a) | graph.peers(a)
            ]
            if edges:
                return LinkDown(*rng.choice(sorted(edges)))
        elif kind == 1:
            a, b = rng.sample(nodes, 2)
            if graph.relationship_between(a, b) is None:
                rel = rng.choice(("p2p", "p2c"))
                return LinkUp(a, b, relationship=rel)
        elif kind == 2:
            peerings = [
                (a, b) for a in nodes for b in graph.peers(a) if a < b
            ]
            if peerings:
                return Depeer(*rng.choice(sorted(peerings)))
        else:
            victim = rng.choice(nodes)
            if victim != origin:
                return ASFailure(victim)
    raise AssertionError("no applicable event found")


class TestApplyRevertIdentity:
    @TIMELINE_SETTINGS
    @given(seed=st.integers(0, 10**6), steps=st.integers(1, 6))
    def test_sequence_and_reversed_inverses_restore_baseline(
        self, seed, steps
    ):
        rng = random.Random(seed)
        graph = random_internet(rng, n_transit=4, n_edge=10)
        nodes = sorted(graph.nodes())
        origin = nodes[seed % len(nodes)]
        graph_before = _graph_snapshot(graph)
        csr_before = _csr_snapshot(graph)
        state_before = propagate_compiled(graph, Seed(asn=origin))

        applied_stack = []
        state = state_before
        for _ in range(steps):
            event = _random_event(graph, rng, origin)
            applied = event.apply(graph)
            applied_stack.append(applied)
            # forward conformance: the state chained from the previous
            # one must equal the oracle on the mutated graph
            state = propagate_event(graph, state, applied)
            oracle = propagate_reference(graph, Seed(asn=origin))
            assert_states_equal(state, oracle, f"forward {event.describe()}")

        for applied in reversed(applied_stack):
            assert applied.inverse is not None
            applied.inverse.apply(graph)

        assert _graph_snapshot(graph) == graph_before
        assert _csr_snapshot(graph) == csr_before
        restored = propagate_compiled(graph, Seed(asn=origin))
        assert_states_equal(restored, state_before, "after revert")

    @TIMELINE_SETTINGS
    @given(seed=st.integers(0, 10**6))
    def test_reverting_through_deltas_restores_the_state_too(self, seed):
        # the event path round-trips: applying the inverse event over the
        # post-event state lands exactly on the baseline state (not
        # merely an equivalent graph)
        rng = random.Random(seed)
        graph = random_internet(rng, n_transit=4, n_edge=10)
        nodes = sorted(graph.nodes())
        origin = nodes[seed % len(nodes)]
        baseline = propagate_compiled(graph, Seed(asn=origin))
        event = _random_event(graph, rng, origin)
        applied = event.apply(graph)
        forward = propagate_event(graph, baseline, applied)
        reverted = applied.inverse.apply(graph)
        back = propagate_event(graph, forward, reverted)
        assert_states_equal(back, baseline, "event round-trip")

    @TIMELINE_SETTINGS
    @given(seed=st.integers(0, 10**6))
    def test_asfailure_inverse_restores_every_edge(self, seed):
        rng = random.Random(seed)
        graph = random_internet(rng, n_transit=4, n_edge=10)
        nodes = sorted(graph.nodes())
        victim = rng.choice(nodes)
        before = _graph_snapshot(graph)
        applied = ASFailure(victim).apply(graph)
        assert not graph.providers(victim)
        assert not graph.customers(victim)
        assert not graph.peers(victim)
        applied.inverse.apply(graph)
        assert _graph_snapshot(graph) == before


def _triangle():
    """p2c(1, 2), p2c(1, 3), p2p(2, 3)."""
    graph = ASGraph()
    graph.add_p2c(1, 2)
    graph.add_p2c(1, 3)
    graph.add_p2p(2, 3)
    return graph


class TestRefusedEvents:
    @pytest.mark.parametrize(
        "event",
        [
            LinkUp(2, 3, "p2p"),
            LinkUp(1, 2, "p2c"),
            # an existing link under the other relationship or direction
            LinkUp(2, 3, "p2c"),
            LinkUp(2, 1, "p2c"),
            LinkUp(1, 3, "p2p"),
        ],
        ids=lambda e: f"{e.relationship}-{e.a}-{e.b}",
    )
    def test_linkup_refuses_an_existing_link(self, event):
        # its inverse LinkDown would delete the link that was there
        graph = _triangle()
        before, csr_before = _graph_snapshot(graph), _csr_snapshot(graph)
        with pytest.raises(ValueError, match="already linked"):
            event.apply(graph)
        assert _graph_snapshot(graph) == before
        assert _csr_snapshot(graph) == csr_before

    def test_asrecover_refuses_a_linked_as(self):
        # its inverse ASFailure would take down every link of the AS,
        # not just the recovered ones
        graph = _triangle()
        graph.add_as(4)
        graph.add_p2c(1, 4)
        before = _graph_snapshot(graph)
        with pytest.raises(ValueError, match="still has links"):
            ASRecover(4, peers=(2,)).apply(graph)
        assert _graph_snapshot(graph) == before
        applied = ASFailure(4).apply(graph)
        applied.inverse.apply(graph)
        assert _graph_snapshot(graph) == before
