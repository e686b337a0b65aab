"""The AS-level topology graph.

``ASGraph`` is the substrate every analysis in this package runs on.  It
stores, per AS, its provider / customer / peer neighbor sets, and offers the
graph-shape queries the paper's metrics need (transit degree, node degree,
stub tests) plus mutation operations used when augmenting a BGP-derived graph
with traceroute-inferred peerings (§4.1 of the paper).

Relationship semantics follow the valley-free model: a provider carries its
customer's traffic anywhere; peers exchange traffic only for themselves and
their customer cones.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Optional

from .relationships import Relationship, RelationshipRecord


class RelationshipConflictError(ValueError):
    """Raised when adding an edge that contradicts an existing edge."""


class ASGraph:
    """Mutable AS-level topology with p2c and p2p edges.

    AS numbers are plain ``int``s.  An AS exists in the graph once it appears
    in any edge or was added via :meth:`add_as`.
    """

    def __init__(self) -> None:
        self._providers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        # topology version and the compiled snapshot built at that version;
        # every mutation bumps the version so compile() never serves a
        # stale CompiledGraph
        self._version: int = 0
        self._compiled = None
        self._compiled_version: int = -1
        # ASes whose adjacency rows changed since the compiled snapshot
        # was built; None means "not patchable" (node set changed, log
        # overflowed, or no snapshot yet) and forces a full recompile
        self._dirty: Optional[set[int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_as(self, asn: int) -> None:
        """Ensure ``asn`` exists in the graph (possibly with no edges)."""
        if asn < 0:
            raise ValueError("AS numbers must be non-negative")
        if asn not in self._providers:
            self._providers[asn] = set()
            self._customers[asn] = set()
            self._peers[asn] = set()
            self._version += 1
            self._dirty = None  # node set changed: CSR shape is different

    def add_p2c(self, provider: int, customer: int) -> None:
        """Add a provider→customer (transit) edge."""
        if provider == customer:
            raise ValueError(f"self-relationship for AS{provider}")
        if self.relationship_between(provider, customer) not in (
            None,
            Relationship.PROVIDER_CUSTOMER,
        ) or customer in self._providers.get(provider, ()):
            raise RelationshipConflictError(
                f"conflicting relationship between AS{provider} and AS{customer}"
            )
        self.add_as(provider)
        self.add_as(customer)
        self._customers[provider].add(customer)
        self._providers[customer].add(provider)
        self._version += 1
        self._mark_dirty(provider, customer)

    def add_p2p(self, a: int, b: int) -> None:
        """Add a settlement-free peering edge."""
        if a == b:
            raise ValueError(f"self-relationship for AS{a}")
        existing = self.relationship_between(a, b)
        if existing is Relationship.PROVIDER_CUSTOMER:
            raise RelationshipConflictError(
                f"AS{a} and AS{b} already have a transit relationship"
            )
        self.add_as(a)
        self.add_as(b)
        self._peers[a].add(b)
        self._peers[b].add(a)
        self._version += 1
        self._mark_dirty(a, b)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, bool]]) -> "ASGraph":
        """A graph of relationship-file edges ``(left, right, transit)``
        (``left`` is the provider of a transit edge), added in order.

        The edges go straight into the adjacency sets.  An exact
        duplicate (a p2c line again, or a p2p line in either order) is
        skipped; an edge contradicting an earlier one raises
        :class:`RelationshipConflictError` as :meth:`add_p2c` and
        :meth:`add_p2p` do.  ASNs must already be valid: distinct and
        non-negative.
        """
        graph = cls()
        providers, customers, peers = (
            graph._providers,
            graph._customers,
            graph._peers,
        )
        for left, right, transit in edges:
            if left in providers:
                if transit:
                    if right in customers[left]:
                        continue
                    if right in providers[left] or right in peers[left]:
                        raise RelationshipConflictError(
                            f"conflicting relationship between AS{left} "
                            f"and AS{right}"
                        )
                else:
                    if right in peers[left]:
                        continue
                    if right in customers[left] or right in providers[left]:
                        raise RelationshipConflictError(
                            f"AS{left} and AS{right} already have a transit "
                            f"relationship"
                        )
            else:
                providers[left], customers[left], peers[left] = (
                    set(), set(), set()
                )
            if right not in providers:
                providers[right], customers[right], peers[right] = (
                    set(), set(), set()
                )
            if transit:
                customers[left].add(right)
                providers[right].add(left)
            else:
                peers[left].add(right)
                peers[right].add(left)
        return graph

    def add_record(self, record: RelationshipRecord) -> None:
        """Add an edge from a :class:`RelationshipRecord`."""
        if record.relationship is Relationship.PROVIDER_CUSTOMER:
            self.add_p2c(record.left, record.right)
        else:
            self.add_p2p(record.left, record.right)

    def remove_edge(self, a: int, b: int) -> None:
        """Remove whatever edge exists between ``a`` and ``b``."""
        rel = self.relationship_between(a, b)
        if rel is None:
            raise KeyError(f"no edge between AS{a} and AS{b}")
        if rel is Relationship.PEER_PEER:
            self._peers[a].discard(b)
            self._peers[b].discard(a)
        elif b in self._customers[a]:
            self._customers[a].discard(b)
            self._providers[b].discard(a)
        else:
            self._customers[b].discard(a)
            self._providers[a].discard(b)
        self._version += 1
        self._mark_dirty(a, b)

    #: dirty-row cap past which compile() rebuilds the CSR from scratch
    _DIRTY_LIMIT = 256

    def _mark_dirty(self, *asns: int) -> None:
        if self._dirty is None:
            return
        self._dirty.update(asns)
        if len(self._dirty) > self._DIRTY_LIMIT:
            self._dirty = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def __iter__(self) -> Iterator[int]:
        return iter(self._providers)

    def nodes(self) -> list[int]:
        """All AS numbers in the graph."""
        return list(self._providers)

    def providers(self, asn: int) -> frozenset[int]:
        """Transit providers of ``asn``."""
        return frozenset(self._providers[asn])

    def customers(self, asn: int) -> frozenset[int]:
        """Transit customers of ``asn``."""
        return frozenset(self._customers[asn])

    def peers(self, asn: int) -> frozenset[int]:
        """Settlement-free peers of ``asn``."""
        return frozenset(self._peers[asn])

    def neighbors(self, asn: int) -> frozenset[int]:
        """All neighbors regardless of relationship."""
        return frozenset(
            self._providers[asn] | self._customers[asn] | self._peers[asn]
        )

    def relationship_between(self, a: int, b: int) -> Optional[Relationship]:
        """Relationship on the edge a—b, or ``None`` if not adjacent."""
        if a not in self._providers or b not in self._providers:
            return None
        if b in self._peers[a]:
            return Relationship.PEER_PEER
        if b in self._customers[a] or b in self._providers[a]:
            return Relationship.PROVIDER_CUSTOMER
        return None

    def degree(self, asn: int) -> int:
        """Node degree: number of unique neighbors."""
        return len(self.neighbors(asn))

    def transit_degree(self, asn: int) -> int:
        """Transit degree per AS-Rank: unique neighbors on transit edges."""
        return len(self._providers[asn] | self._customers[asn])

    def is_stub(self, asn: int) -> bool:
        """A stub AS provides transit to nobody."""
        return not self._customers[asn]

    def edge_count(self) -> int:
        """Number of undirected edges (each p2c / p2p pair counted once)."""
        transit = sum(len(c) for c in self._customers.values())
        peering = sum(len(p) for p in self._peers.values()) // 2
        return transit + peering

    def records(self) -> Iterator[RelationshipRecord]:
        """Iterate all edges as canonical records (deterministic order)."""
        for provider in sorted(self._customers):
            for customer in sorted(self._customers[provider]):
                yield RelationshipRecord(
                    provider, customer, Relationship.PROVIDER_CUSTOMER
                )
        for a in sorted(self._peers):
            for b in sorted(self._peers[a]):
                if a < b:
                    yield RelationshipRecord(a, b, Relationship.PEER_PEER)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self):
        """Freeze the graph into a :class:`~repro.bgpsim.compiled.CompiledGraph`.

        The compiled snapshot (dense integer-indexed CSR adjacency arrays)
        is cached and reused while the topology is unchanged; any mutation
        (:meth:`add_as`, :meth:`add_p2c`, :meth:`add_p2p`,
        :meth:`remove_edge`, and everything built on them, e.g. the
        traceroute augmentation path) invalidates the cache so the next
        call recompiles.  Previously returned snapshots stay valid as
        immutable views of the topology at the time they were built.

        Edge mutations that keep the node set intact are tracked as a
        dirty-row log, and the recompile *patches* the previous snapshot
        — only the touched adjacency rows are rebuilt — so event-driven
        timelines (``repro.bgpsim.events``) pay per-event compile costs
        proportional to the event, not the graph.  Node additions, or
        more than ``_DIRTY_LIMIT`` touched ASes, fall back to a full
        rebuild; both paths produce identical arrays
        (``tests/test_timeline_properties.py``).
        """
        if self._compiled is None or self._compiled_version != self._version:
            from ..bgpsim.compiled import CompiledGraph

            if self._compiled is not None and self._dirty is not None:
                self._compiled = CompiledGraph.patched(
                    self, self._compiled, self._dirty
                )
            else:
                self._compiled = CompiledGraph.from_graph(self)
            self._compiled_version = self._version
            self._dirty = set()
        return self._compiled

    def __getstate__(self) -> dict:
        # never ship the compiled snapshot alongside the adjacency dicts —
        # workers that want it compile (or receive) it separately
        state = self.__dict__.copy()
        state["_compiled"] = None
        state["_compiled_version"] = -1
        state["_dirty"] = None
        return state

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "ASGraph":
        """Deep copy of the graph."""
        other = ASGraph()
        for asn in self._providers:
            other.add_as(asn)
            other._providers[asn] = set(self._providers[asn])
            other._customers[asn] = set(self._customers[asn])
            other._peers[asn] = set(self._peers[asn])
        return other

    def without(self, excluded: Iterable[int]) -> "ASGraph":
        """Copy of the graph with ``excluded`` ASes (and their edges) removed.

        Most algorithms take an ``excluded`` set directly instead of
        materializing the subgraph; this exists for interoperability and
        tests.
        """
        excluded_set = set(excluded)
        other = ASGraph()
        for asn in self._providers:
            if asn in excluded_set:
                continue
            other.add_as(asn)
            other._providers[asn] = self._providers[asn] - excluded_set
            other._customers[asn] = self._customers[asn] - excluded_set
            other._peers[asn] = self._peers[asn] - excluded_set
        return other

    def validate(self) -> None:
        """Check internal consistency; raises ``AssertionError`` on damage."""
        for asn in self._providers:
            for p in self._providers[asn]:
                assert asn in self._customers[p], (asn, p)
            for c in self._customers[asn]:
                assert asn in self._providers[c], (asn, c)
            for q in self._peers[asn]:
                assert asn in self._peers[q], (asn, q)
            assert not (self._peers[asn] & self._providers[asn])
            assert not (self._peers[asn] & self._customers[asn])
            assert not (self._providers[asn] & self._customers[asn]), asn
            assert asn not in self._providers[asn]
            assert asn not in self._peers[asn]
