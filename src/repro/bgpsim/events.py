"""Dynamic-topology events over cached per-origin baselines.

The paper's leak experiments study one kind of disturbance; this module
generalizes it to an *event algebra* over the topology itself:

* :class:`LinkDown` / :class:`Depeer` / :class:`ASFailure` — edge removal;
* :class:`LinkUp` / :class:`ASRecover` — edge addition;
* :class:`Hijack` — a more-specific origin steal: no topology change, the
  hijacker's announcement wins wherever it reaches;
* :class:`RouteLeak` — the paper's re-announce leak as an event.

Each event's :meth:`~Event.apply` mutates an ``ASGraph`` in place and
returns an :class:`AppliedEvent` carrying the exact edge delta plus the
*inverse* event, so timelines can be replayed and reverted (the
property-based tests in ``tests/test_timeline_properties.py`` rely on
apply ∘ revert being the identity on both the graph and its compiled
cache).  An event that cannot be undone exactly is refused before it
touches the graph: a :class:`LinkDown` of a missing link, a
:class:`LinkUp` of an existing one, an :class:`ASRecover` of an AS that
still has links.

:func:`propagate_event` then derives one origin's post-event state from
its pre-event baseline with one compiled propagation.  Topology events
re-propagate the baseline's seeds on the mutated graph, whose CSR
arrays ``ASGraph.compile`` patches from its dirty-row log; a
:class:`RouteLeak` is one two-seed propagation; a :class:`Hijack`
merges the hijacker's own propagation over the baseline.  The result is
a :class:`~repro.bgpsim.compiled.CompiledRoutingState`, so post-event
states chain as the next event's baseline, pickle compactly, and feed
the metric kernels unchanged.  ``tests/test_event_engine.py`` checks
every event type against ``propagate_reference`` on the mutated graph.
"""

from __future__ import annotations

from array import array
from collections.abc import Collection
from dataclasses import dataclass
from typing import Optional

from .compiled import (
    _signed_typecode,
    _unsigned_typecode,
    CompiledGraph,
    CompiledRoutingState,
    propagate_compiled,
)
from .routes import Seed

__all__ = [
    "AppliedEvent",
    "ASFailure",
    "ASRecover",
    "Depeer",
    "Event",
    "Hijack",
    "LinkDown",
    "LinkUp",
    "RouteLeak",
    "propagate_event",
]


# ---------------------------------------------------------------------------
# the event algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppliedEvent:
    """Record of one event applied to a graph.

    ``removed`` holds the undirected AS pairs the event deleted,
    ``added`` the ``(a, b, relationship)`` triples it created (``a`` is
    the provider for ``"p2c"``).  ``inverse`` is the event that undoes
    this one (``None`` for seed events, which change no topology).
    """

    event: "Event"
    inverse: Optional["Event"]
    removed: tuple[tuple[int, int], ...] = ()
    added: tuple[tuple[int, int, str], ...] = ()

    @property
    def mutates_topology(self) -> bool:
        return bool(self.removed or self.added)


@dataclass(frozen=True)
class Event:
    """Base class of the typed event algebra; use the concrete events."""

    #: whether applying the event changes the topology (seed events don't)
    mutates_topology = True

    def apply(self, graph) -> AppliedEvent:
        raise NotImplementedError

    def describe(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class LinkDown(Event):
    """Failure of the (transit or peering) link between two ASes."""

    a: int
    b: int

    def apply(self, graph) -> AppliedEvent:
        rel = graph.relationship_between(self.a, self.b)
        if rel is None:
            raise KeyError(f"no edge between AS{self.a} and AS{self.b}")
        from ..topology.relationships import Relationship

        if rel is Relationship.PEER_PEER:
            inverse: Event = LinkUp(self.a, self.b, "p2p")
        elif self.b in graph.customers(self.a):
            inverse = LinkUp(self.a, self.b, "p2c")
        else:
            inverse = LinkUp(self.b, self.a, "p2c")
        graph.remove_edge(self.a, self.b)
        return AppliedEvent(self, inverse, removed=((self.a, self.b),))

    def describe(self) -> str:
        return f"link-down AS{self.a}—AS{self.b}"


@dataclass(frozen=True)
class LinkUp(Event):
    """A new link; for ``"p2c"`` the first AS is the provider.

    Both endpoints must already exist in the graph and must not be linked
    yet, so the inverse :class:`LinkDown` restores the exact previous
    topology.
    """

    a: int
    b: int
    relationship: str = "p2p"

    def __post_init__(self) -> None:
        if self.relationship not in ("p2c", "p2p"):
            raise ValueError(f"unknown relationship {self.relationship!r}")

    def apply(self, graph) -> AppliedEvent:
        if self.a not in graph or self.b not in graph:
            raise KeyError(
                f"AS{self.a} or AS{self.b} not in graph; add_as() new "
                "ASes before raising links to them"
            )
        if graph.relationship_between(self.a, self.b) is not None:
            # the inverse LinkDown would delete the link that was there
            raise ValueError(
                f"AS{self.a} and AS{self.b} are already linked"
            )
        if self.relationship == "p2c":
            graph.add_p2c(self.a, self.b)
        else:
            graph.add_p2p(self.a, self.b)
        return AppliedEvent(
            self,
            LinkDown(self.a, self.b),
            added=((self.a, self.b, self.relationship),),
        )

    def describe(self) -> str:
        arrow = "→" if self.relationship == "p2c" else "—"
        return f"link-up AS{self.a}{arrow}AS{self.b} ({self.relationship})"


@dataclass(frozen=True)
class Depeer(Event):
    """Termination of a settlement-free peering (must be p2p)."""

    a: int
    b: int

    def apply(self, graph) -> AppliedEvent:
        from ..topology.relationships import Relationship

        rel = graph.relationship_between(self.a, self.b)
        if rel is not Relationship.PEER_PEER:
            raise ValueError(
                f"AS{self.a} and AS{self.b} are not peers; "
                "use LinkDown for transit edges"
            )
        graph.remove_edge(self.a, self.b)
        return AppliedEvent(
            self, LinkUp(self.a, self.b, "p2p"), removed=((self.a, self.b),)
        )

    def describe(self) -> str:
        return f"depeer AS{self.a}—AS{self.b}"


@dataclass(frozen=True)
class ASFailure(Event):
    """Complete outage of one AS: every incident edge goes down.

    The AS itself stays in the graph (isolated), so the routing-state
    universe is unchanged and the inverse :class:`ASRecover` restores
    the captured edge sets exactly.
    """

    asn: int

    def apply(self, graph) -> AppliedEvent:
        if self.asn not in graph:
            raise KeyError(f"AS{self.asn} not in graph")
        providers = tuple(sorted(graph.providers(self.asn)))
        customers = tuple(sorted(graph.customers(self.asn)))
        peers = tuple(sorted(graph.peers(self.asn)))
        removed = []
        for nbr in providers + customers + peers:
            graph.remove_edge(self.asn, nbr)
            removed.append((self.asn, nbr))
        inverse = ASRecover(self.asn, providers, customers, peers)
        return AppliedEvent(self, inverse, removed=tuple(removed))

    def describe(self) -> str:
        return f"as-failure AS{self.asn}"


@dataclass(frozen=True)
class ASRecover(Event):
    """Recovery of a failed AS: re-raise the captured incident edges.

    The AS must be isolated, so the inverse :class:`ASFailure` restores
    the exact previous topology.
    """

    asn: int
    providers: tuple[int, ...] = ()
    customers: tuple[int, ...] = ()
    peers: tuple[int, ...] = ()

    def apply(self, graph) -> AppliedEvent:
        if self.asn not in graph:
            raise KeyError(f"AS{self.asn} not in graph")
        if graph.neighbors(self.asn):
            # the inverse ASFailure would take down every link of the AS
            raise ValueError(
                f"AS{self.asn} still has links; ASRecover re-raises the "
                "links of an isolated AS"
            )
        added = []
        for p in self.providers:
            graph.add_p2c(p, self.asn)
            added.append((p, self.asn, "p2c"))
        for c in self.customers:
            graph.add_p2c(self.asn, c)
            added.append((self.asn, c, "p2c"))
        for q in self.peers:
            graph.add_p2p(self.asn, q)
            added.append((self.asn, q, "p2p"))
        return AppliedEvent(self, ASFailure(self.asn), added=tuple(added))

    def describe(self) -> str:
        return f"as-recover AS{self.asn}"


@dataclass(frozen=True)
class Hijack(Event):
    """More-specific prefix hijack: the hijacker originates a more
    specific of the baseline origin's prefix, so its announcement wins at
    every AS it reaches regardless of route preference.  The legitimate
    origin itself keeps its own route."""

    hijacker: int
    key: str = "hijack"
    mutates_topology = False

    def apply(self, graph) -> AppliedEvent:
        return AppliedEvent(self, None)

    def describe(self) -> str:
        return f"hijack by AS{self.hijacker}"


@dataclass(frozen=True)
class RouteLeak(Event):
    """The paper's route leak as an event: the leaker re-announces its
    learned route for the origin's prefix to all neighbors.

    ``initial_length=None`` means re-announce semantics — the leak seed
    carries the leaker's baseline path length (the leaker must hold a
    route); an explicit length overrides (0 reproduces origin-hijack
    style leaks)."""

    leaker: int
    initial_length: Optional[int] = None
    key: str = "leak"
    mutates_topology = False

    def apply(self, graph) -> AppliedEvent:
        return AppliedEvent(self, None)

    def describe(self) -> str:
        return f"route-leak by AS{self.leaker}"


# ---------------------------------------------------------------------------
# post-event states
# ---------------------------------------------------------------------------

def _capacity(typecode: str) -> int:
    """Largest value an array of ``typecode`` can hold."""
    bits = array(typecode).itemsize * 8
    return (1 << (bits - 1)) - 1 if typecode.islower() else (1 << bits) - 1


def _owned(arr) -> array:
    """A mutable owned copy of ``arr`` (slice copy for arrays; a
    ``memoryview`` of a shared-memory baseline must not be aliased)."""
    if isinstance(arr, array):
        return arr[:]
    return array(arr.format, arr)


def _widened(arr, needed_max: int, code_fn) -> array:
    """Copy ``arr``, widening its typecode only if ``needed_max`` won't
    fit — the common case is a same-typecode slice copy (a memcpy)
    instead of O(n) element-conversion work.  A ``memoryview`` (a
    zero-copy view of a shared-memory baseline) must become an owned
    array either way: its slice would alias the shared segment and the
    caller mutates the result."""
    if not isinstance(arr, array):
        code = arr.format
        if needed_max <= _capacity(code):
            return array(code, arr)
        return array(code_fn(needed_max), arr)
    if needed_max <= _capacity(arr.typecode):
        return arr[:]
    return array(code_fn(needed_max), arr)


def propagate_event(
    graph,
    baseline: CompiledRoutingState,
    applied: AppliedEvent,
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
) -> CompiledRoutingState:
    """One origin's post-event routing state.

    ``graph`` must already be mutated by ``applied`` (i.e. this is called
    with the :class:`AppliedEvent` returned by ``event.apply(graph)``),
    and ``baseline`` must be the pre-event state for the same
    ``excluded`` / ``peer_locked`` / ``locked_origin`` configuration.
    Topology events re-propagate the baseline's seeds on the mutated
    graph.  A :class:`RouteLeak` reads its re-announce length off the
    baseline and runs one two-seed propagation.  A :class:`Hijack`
    propagates the hijacker alone and merges it over the baseline: a
    more-specific prefix wins wherever it reaches, so the merge is the
    event's meaning.
    """
    event = applied.event
    if isinstance(event, Hijack):
        return _hijack_outcome(
            graph, baseline, event, excluded, peer_locked, locked_origin
        )
    seeds = baseline.seeds
    if isinstance(event, RouteLeak):
        legit = seeds[0]
        if event.leaker == legit.asn:
            raise ValueError(f"AS{event.leaker} cannot leak its own prefix")
        length = event.initial_length
        if length is None:
            length = baseline.path_length(event.leaker)
            if length is None:
                raise ValueError(
                    f"AS{event.leaker} has no route to AS{legit.asn}; "
                    "nothing to leak"
                )
        seeds = (
            legit,
            Seed(asn=event.leaker, key=event.key, initial_length=length),
        )
    return propagate_compiled(
        graph.compile(),
        seeds,
        excluded=excluded,
        peer_locked=peer_locked,
        locked_origin=locked_origin,
    )


def _hijack_outcome(
    graph,
    baseline: CompiledRoutingState,
    event: Hijack,
    excluded: Collection[int],
    peer_locked: Collection[int],
    locked_origin: Optional[int],
) -> CompiledRoutingState:
    """The hijacker's own propagation merged over ``baseline``: every AS
    the hijacker reaches takes its route, the rest keep theirs."""
    cg: CompiledGraph = graph.compile()
    n = cg.n
    if len(baseline.seeds) != 1:
        raise ValueError("a hijack needs a single-seed baseline")
    if baseline._asns is not cg.asns and baseline._asns != cg.asns:
        raise ValueError("baseline was computed over a different AS universe")
    legit = baseline.seeds[0]
    if event.hijacker == legit.asn:
        raise ValueError(f"AS{event.hijacker} cannot hijack its own prefix")
    hseed = Seed(asn=event.hijacker, key=event.key)
    hstate = propagate_compiled(
        cg,
        hseed,
        excluded=excluded,
        peer_locked=peer_locked,
        locked_origin=locked_origin,
    )
    index = cg.index
    li = index[legit.asn]
    hrc, hln = hstate._route_class, hstate._length
    hhead = hstate._parent_head
    hpp, hpn = hstate._pool_parent, hstate._pool_next
    # baseline copies stay in their typecodes (memcpy) and widen only
    # when the hijacker's lengths or the grown pool demand it — see
    # _widened; the merge itself is O(hijacker's region), not O(n)
    rc = bytearray(baseline._route_class)
    pool_size = len(baseline._pool_parent) + len(hpp)
    ln = _widened(
        baseline._length, max(hln) if len(hln) else 0, _unsigned_typecode
    )
    head = _widened(baseline._parent_head, pool_size - 1, _signed_typecode)
    pool_parent = _owned(baseline._pool_parent)
    pool_next = _widened(baseline._pool_next, pool_size - 1, _signed_typecode)
    mask = [0] * n
    for i in baseline._routed:
        mask[i] = 1
    for i in hstate._routed:
        if i == li:
            continue  # the legitimate origin keeps its own route
        mask[i] = 2
        rc[i] = hrc[i]
        ln[i] = hln[i]
        h = hhead[i]
        nh = -1
        while h >= 0:
            pool_parent.append(hpp[h])
            pool_next.append(nh)
            nh = len(pool_parent) - 1
            h = hpn[h]
        head[i] = nh
    routed_set = set(baseline._routed)
    routed_set.update(hstate._routed)
    return CompiledRoutingState(
        cg.asns,
        (legit, hseed),
        rc,
        ln,
        head,
        pool_parent,
        pool_next,
        array(_unsigned_typecode(max(n - 1, 0)), sorted(routed_set)),
        mask,
    )
