"""Compiled integer-indexed propagation kernel.

The reference engine (:mod:`repro.bgpsim.engine`) walks Python
dicts-of-sets and allocates one :class:`~repro.bgpsim.routes.NodeRoute`
per AS; at measured-Internet scale (~70k ASes × thousands of origins per
sweep) the object churn dominates.  This module freezes an
:class:`~repro.topology.asgraph.ASGraph` into dense CSR adjacency arrays
and runs the three Gao-Rexford phases over flat arrays:

* :class:`CompiledGraph` — an immutable snapshot holding, per relation
  (providers / customers / peers), an ``array('q')`` offset table and an
  ``array('i')`` neighbor-index table, plus the ASN↔index mapping.  It
  also implements the read-only query API of ``ASGraph`` so graph
  consumers (and the reference engine itself) can run on it unchanged.
* :func:`propagate_compiled` — the kernel: route class / length /
  parent-head arrays plus a linked parent-edge pool instead of per-node
  route objects, computed by the numpy frontier sweeps of
  :mod:`repro.bgpsim.vectorized`.  It is proven result-equivalent to the
  reference engine by the differential harness in
  ``tests/test_compiled_engine.py``.
* :class:`CompiledRoutingState` — the compact result.  It subclasses
  :class:`~repro.bgpsim.routes.RoutingState` and materializes the
  ``routes`` dict of ``NodeRoute`` objects lazily on first access, so
  every existing consumer keeps working; until then the arrays answer
  the cheap queries (``has_route``, ``path_length``, ``origins_at``,
  ``reachable_ases``) directly, and pickling ships only the arrays —
  which is what makes parallel sweeps and the routing-state cache cheap.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Collection, Iterable, Iterator
from typing import Optional

from .routes import NodeRoute, RouteClass, RoutingState, Seed

__all__ = ["CompiledGraph", "CompiledRoutingState", "propagate_compiled"]

#: sentinel in the route-class array: no route
_NO_ROUTE = 3

_CLASSES = (RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER)


def _unsigned_typecode(maxval: int) -> str:
    """Smallest unsigned array typecode holding values in [0, maxval]."""
    if maxval < 1 << 16:
        return "H"
    if maxval < 1 << 31:
        return "i"
    return "q"


def _signed_typecode(maxval: int) -> str:
    """Smallest signed array typecode holding values in [-1, maxval]."""
    if maxval < 1 << 15:
        return "h"
    if maxval < 1 << 31:
        return "i"
    return "q"


def _concrete_buffers(state: dict) -> dict:
    """Replace ``memoryview`` values (zero-copy views of a shared-memory
    arena, see :mod:`repro.bgpsim.shm`) with picklable owned copies."""
    for key, value in state.items():
        if isinstance(value, memoryview):
            state[key] = (
                bytearray(value)
                if value.format == "B"
                else array(value.format, value)
            )
    return state


def _csr(
    asns: list[int], index: dict[int, int], rows, nbr_code: str
) -> tuple[array, array]:
    """Build (offsets, neighbor-index) CSR arrays; rows sorted by index."""
    offsets = array("q", [0])
    neighbors = array(nbr_code)
    for asn in asns:
        neighbors.extend(sorted(index[n] for n in rows(asn)))
        offsets.append(len(neighbors))
    return array(_unsigned_typecode(len(neighbors)), offsets), neighbors


class CompiledGraph:
    """Immutable CSR snapshot of an ``ASGraph``.

    Node *i* corresponds to ``asns[i]`` (ASNs in ascending order); the
    neighbors of node *i* under a relation are
    ``nbr[off[i]:off[i + 1]]`` (neighbor *indices*, ascending).  Built
    via :meth:`ASGraph.compile` (cached, invalidated on mutation) or
    :meth:`from_graph`.
    """

    def __init__(
        self,
        asns: array,
        provider_off: array,
        provider_nbr: array,
        customer_off: array,
        customer_nbr: array,
        peer_off: array,
        peer_nbr: array,
    ) -> None:
        self.asns = asns
        self.n = len(asns)
        self.index: dict[int, int] = {asn: i for i, asn in enumerate(asns)}
        self.provider_off = provider_off
        self.provider_nbr = provider_nbr
        self.customer_off = customer_off
        self.customer_nbr = customer_nbr
        self.peer_off = peer_off
        self.peer_nbr = peer_nbr

    @classmethod
    def from_graph(cls, graph) -> "CompiledGraph":
        asns = sorted(graph.nodes())
        index = {asn: i for i, asn in enumerate(asns)}
        # arrays use the smallest typecode that fits, which keeps the
        # pickled payload (what ships to every pool worker) minimal
        nbr_code = _unsigned_typecode(max(len(asns) - 1, 0))
        provider_off, provider_nbr = _csr(asns, index, graph.providers, nbr_code)
        customer_off, customer_nbr = _csr(asns, index, graph.customers, nbr_code)
        peer_off, peer_nbr = _csr(asns, index, graph.peers, nbr_code)
        return cls(
            array(_unsigned_typecode(asns[-1]) if asns else "H", asns),
            provider_off,
            provider_nbr,
            customer_off,
            customer_nbr,
            peer_off,
            peer_nbr,
        )

    def compile(self) -> "CompiledGraph":
        """Already compiled — lets ``graph.compile()`` work uniformly."""
        return self

    @classmethod
    def patched(cls, graph, base: "CompiledGraph", dirty) -> "CompiledGraph":
        """A snapshot of ``graph`` built by patching ``base`` in place of
        a full rebuild: only the adjacency rows of the ``dirty`` ASes are
        recomputed, everything else is slice-copied from ``base``.

        Valid only when the node set is unchanged since ``base`` was
        built (``ASGraph.compile`` guarantees it by dropping the dirty
        log on any node addition); produces arrays identical to
        :meth:`from_graph` on the same graph.
        """
        index = base.index
        arrays = []
        for rows, off, nbr in (
            (graph.providers, base.provider_off, base.provider_nbr),
            (graph.customers, base.customer_off, base.customer_nbr),
            (graph.peers, base.peer_off, base.peer_nbr),
        ):
            new_rows: dict[int, list[int]] = {}
            for asn in dirty:
                i = index[asn]
                row = sorted(index[n] for n in rows(asn))
                if row != list(nbr[off[i] : off[i + 1]]):
                    new_rows[i] = row
            if not new_rows:
                arrays.append((off, nbr))
                continue
            new_nbr = array(nbr.typecode)
            prev = 0
            for i in sorted(new_rows):
                new_nbr.extend(nbr[prev : off[i]])
                new_nbr.extend(array(nbr.typecode, new_rows[i]))
                prev = off[i + 1]
            new_nbr.extend(nbr[prev:])
            new_off = array("q", [0])
            total = 0
            for i in range(base.n):
                total += (
                    len(new_rows[i])
                    if i in new_rows
                    else off[i + 1] - off[i]
                )
                new_off.append(total)
            arrays.append(
                (array(_unsigned_typecode(total), new_off), new_nbr)
            )
        (p_off, p_nbr), (c_off, c_nbr), (e_off, e_nbr) = arrays
        return cls(base.asns, p_off, p_nbr, c_off, c_nbr, e_off, e_nbr)

    # -- pickling: the index dict (and the vectorized engine's cached
    # numpy views) are derived, rebuild them on load ----------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["index"]
        state.pop("_np_csr", None)
        return _concrete_buffers(state)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.index = {asn: i for i, asn in enumerate(self.asns)}

    # -- read-only ASGraph query API --------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self.index

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns)

    def nodes(self) -> list[int]:
        return list(self.asns)

    def _row(self, off: array, nbr: array, asn: int) -> frozenset[int]:
        i = self.index[asn]
        asns = self.asns
        return frozenset(asns[j] for j in nbr[off[i] : off[i + 1]])

    def providers(self, asn: int) -> frozenset[int]:
        return self._row(self.provider_off, self.provider_nbr, asn)

    def customers(self, asn: int) -> frozenset[int]:
        return self._row(self.customer_off, self.customer_nbr, asn)

    def peers(self, asn: int) -> frozenset[int]:
        return self._row(self.peer_off, self.peer_nbr, asn)

    def neighbors(self, asn: int) -> frozenset[int]:
        return self.providers(asn) | self.customers(asn) | self.peers(asn)

    def degree(self, asn: int) -> int:
        return len(self.neighbors(asn))

    def transit_degree(self, asn: int) -> int:
        return len(self.providers(asn) | self.customers(asn))

    def is_stub(self, asn: int) -> bool:
        i = self.index[asn]
        return self.customer_off[i] == self.customer_off[i + 1]

    def edge_count(self) -> int:
        return len(self.customer_nbr) + len(self.peer_nbr) // 2

    def relationship_between(self, a: int, b: int):
        from ..topology.relationships import Relationship

        if a not in self.index or b not in self.index:
            return None
        if b in self.peers(a):
            return Relationship.PEER_PEER
        if b in self.customers(a) or b in self.providers(a):
            return Relationship.PROVIDER_CUSTOMER
        return None


class CompiledRoutingState(RoutingState):
    """Array-backed routing state; materializes ``NodeRoute`` objects lazily.

    The parent sets live in a linked edge pool: ``parent_head[i]`` is the
    index of node *i*'s first pool entry (−1 = none), each entry holds a
    parent node index (``pool_parent``) and the next entry (``pool_next``).
    ``origin_mask[i]`` is a bitmask over ``seeds`` (``None`` for the
    single-seed fast path, where every routed AS trivially reaches the
    only seed).
    """

    def __init__(
        self,
        asns: array,
        seeds: tuple[Seed, ...],
        route_class: bytearray,
        length: array,
        parent_head: array,
        pool_parent: array,
        pool_next: array,
        routed: array,
        origin_mask: Optional[list[int]],
    ) -> None:
        self.seeds = seeds
        self.seed_asns = frozenset(s.asn for s in seeds)
        # only the (shared) ASN table travels with the state — not the
        # adjacency arrays — so pickled states stay compact
        self._asns = asns
        self._route_class = route_class
        self._length = length
        self._parent_head = parent_head
        self._pool_parent = pool_parent
        self._pool_next = pool_next
        self._routed = routed
        self._origin_mask = origin_mask
        self._materialized: Optional[dict[int, NodeRoute]] = None
        # metric-kernel caches (see repro.bgpsim.metrics_kernel): the
        # big-int DAG, the tied-best-path counts and the width-1 sweep
        self._metric_dag = None
        self._metric_counts: Optional[list[int]] = None
        self._metric_sweep = None

    def _idx(self, asn: int) -> Optional[int]:
        i = bisect_left(self._asns, asn)
        if i < len(self._asns) and self._asns[i] == asn:
            return i
        return None

    # -- lazy materialization ---------------------------------------------
    @property
    def routes(self) -> dict[int, NodeRoute]:
        if self._materialized is None:
            self._materialized = self._materialize()
        return self._materialized

    def _origins_for(self, i: int, keys: tuple[str, ...]) -> set[str]:
        if self._origin_mask is None:
            return {keys[0]}
        mask = self._origin_mask[i]
        return {keys[b] for b in range(len(keys)) if mask >> b & 1}

    def _materialize(self) -> dict[int, NodeRoute]:
        asns = self._asns
        rc, ln = self._route_class, self._length
        head, pool_parent, pool_next = (
            self._parent_head,
            self._pool_parent,
            self._pool_next,
        )
        keys = tuple(s.key for s in self.seeds)
        routes: dict[int, NodeRoute] = {}
        for i in sorted(self._routed):
            parents = set()
            h = head[i]
            while h >= 0:
                parents.add(asns[pool_parent[h]])
                h = pool_next[h]
            routes[asns[i]] = NodeRoute(
                _CLASSES[rc[i]], ln[i], parents, self._origins_for(i, keys)
            )
        return routes

    # -- array-backed fast paths (no materialization) ----------------------
    def route(self, asn: int) -> Optional[NodeRoute]:
        """Per-AS :class:`NodeRoute` without materializing ``routes``.

        Walking one parent pool builds one route object; hop-by-hop
        consumers (the traceroute walk) stay on the compact arrays
        instead of forcing the full dict into existence.
        """
        if self._materialized is not None:
            return self._materialized.get(asn)
        i = self._idx(asn)
        if i is None or self._route_class[i] == _NO_ROUTE:
            return None
        parents = set()
        h = self._parent_head[i]
        pool_parent, pool_next, asns = (
            self._pool_parent,
            self._pool_next,
            self._asns,
        )
        while h >= 0:
            parents.add(asns[pool_parent[h]])
            h = pool_next[h]
        return NodeRoute(
            _CLASSES[self._route_class[i]],
            self._length[i],
            parents,
            self._origins_for(i, tuple(s.key for s in self.seeds)),
        )

    def route_class(self, asn: int) -> Optional[RouteClass]:
        if self._materialized is not None:
            node = self._materialized.get(asn)
            return node.route_class if node else None
        i = self._idx(asn)
        if i is None or self._route_class[i] == _NO_ROUTE:
            return None
        return _CLASSES[self._route_class[i]]

    def has_route(self, asn: int) -> bool:
        if self._materialized is not None:
            return asn in self._materialized
        i = self._idx(asn)
        return i is not None and self._route_class[i] != _NO_ROUTE

    def path_length(self, asn: int) -> Optional[int]:
        if self._materialized is not None:
            node = self._materialized.get(asn)
            return node.length if node else None
        i = self._idx(asn)
        if i is None or self._route_class[i] == _NO_ROUTE:
            return None
        return self._length[i]

    def origins_at(self, asn: int) -> frozenset[str]:
        if self._materialized is not None:
            node = self._materialized.get(asn)
            return frozenset(node.origins) if node else frozenset()
        i = self._idx(asn)
        if i is None or self._route_class[i] == _NO_ROUTE:
            return frozenset()
        return frozenset(self._origins_for(i, tuple(s.key for s in self.seeds)))

    def ases_with_origin(self, key: str) -> frozenset[int]:
        keys = tuple(s.key for s in self.seeds)
        if key not in keys:
            return frozenset()
        asns = self._asns
        if self._origin_mask is None:
            # single-seed fast path: every routed AS reaches the only seed
            return frozenset(asns[i] for i in self._routed)
        want = 0
        for b, k in enumerate(keys):
            if k == key:
                want |= 1 << b
        mask = self._origin_mask
        return frozenset(asns[i] for i in self._routed if mask[i] & want)

    def reachable_ases(self) -> frozenset[int]:
        if self._materialized is not None:
            return frozenset(self._materialized) - self.seed_asns
        asns = self._asns
        return frozenset(asns[i] for i in self._routed) - self.seed_asns

    # -- pickling: ship the compact arrays, never the materialized dict
    # (nor the derived metric-kernel caches) ------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_materialized"] = None
        state["_metric_dag"] = None
        state["_metric_counts"] = None
        state["_metric_sweep"] = None
        return _concrete_buffers(state)


def _check_seeds(
    cgraph: CompiledGraph,
    seeds: tuple[Seed, ...],
    excluded: Collection[int],
) -> None:
    if not seeds:
        raise ValueError("at least one seed required")
    seen = set()
    for seed in seeds:
        if seed.asn not in cgraph.index:
            raise KeyError(f"seed AS{seed.asn} not in graph")
        if seed.asn in excluded:
            raise ValueError(f"seed AS{seed.asn} is excluded")
        if seed.asn in seen:
            raise ValueError(f"duplicate seed AS{seed.asn}")
        seen.add(seed.asn)


def propagate_compiled(
    graph,
    seeds: Seed | Iterable[Seed],
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
) -> CompiledRoutingState:
    """Array-based Gao-Rexford propagation; result ≡ the reference engine.

    ``graph`` may be an ``ASGraph`` (compiled through its cache) or a
    :class:`CompiledGraph`.  Semantics — valley-free export, customer >
    peer > provider preference, all ties kept, ``excluded`` /
    ``peer_locked`` / per-seed ``export_to`` filtering — match
    :func:`repro.bgpsim.engine.propagate_reference` exactly.
    """
    cg: CompiledGraph = graph.compile()
    if isinstance(seeds, Seed):
        seeds = (seeds,)
    seeds = tuple(seeds)
    _check_seeds(cg, seeds, excluded)

    from .vectorized import propagate_compiled_vector

    return propagate_compiled_vector(
        cg, seeds, excluded, peer_locked, locked_origin
    )
