"""Bit-parallel multi-origin propagation: one graph sweep per batch.

The all-AS sweeps — hierarchy-free reachability for every AS, RIB
collection, global hegemony — run one single-seed Gao-Rexford
propagation per origin.  Those propagations are identical in *shape*:
the same three phases walk the same CSR arrays, and the only per-origin
difference is *which* origins have reached each AS.  That is exactly the
situation bitset-parallel BFS collapses: this module gives each of B
origins one bit of a per-AS mask and runs the three phases of
:func:`~repro.bgpsim.compiled.propagate_compiled` once per *batch*
instead of once per origin.  The sweep itself runs on ``(n, W)`` uint64
mask matrices (:func:`repro.bgpsim.vectorized.propagate_batch_vector`);
the batch keeps the result as one Python big int per AS and class.

Why first-arrival order is enough: with ``initial_length == 0`` for
every origin (the plain ``Seed(asn=origin)`` the sweeps use), each phase
is level-synchronous —

* phase 1 is a BFS up provider edges, so the level at which an origin's
  bit first reaches an AS *is* its customer-route length, and the tied
  parents are exactly the customer-side neighbors whose bit arrived one
  level earlier;
* phase 2 is one hop across peer edges, processed in ascending customer
  level so the first arrival is the shortest peer route;
* phase 3 is a unit-weight Dijkstra down customer edges, i.e. a bucket
  queue over lengths, so again first arrival = final length.

Per AS the batch stores three origin bitmasks (customer / peer /
provider class) plus per-``(class, level)`` arrival masks; ``(phase,
level)`` recovers the route class and path length for every origin bit,
and parent pools are reconstructed on demand by scanning CSR neighbors
for class/length-consistent predecessors — in ascending neighbor order,
the same canonical order the metric kernels sort into.

The result is a :class:`BatchRoutingState` whose per-origin
:class:`BatchOriginView` objects subclass
:class:`~repro.bgpsim.compiled.CompiledRoutingState`: the cheap queries
(``has_route`` / ``path_length`` / ``route_class`` / per-AS ``route``)
read straight off the batch masks, while the flat per-origin arrays the
PR-4 metric kernels consume are materialized lazily on first touch — so
every existing consumer, including the kernels, runs unchanged.
Equivalence with per-origin :func:`propagate_compiled` is proven by the
differential harness in ``tests/test_multiorigin_engine.py``.

Restrictions: the bit-parallel kernel serves the *plain sweep* shape —
one default seed per origin and one ``excluded`` set shared by the whole
batch, which is all the signature can express.  ``peer_locked`` sets,
nonzero ``initial_length`` and per-seed ``export_to`` filters make the
export predicate origin-dependent and have no batched counterpart;
callers needing them (leak simulations) keep the per-origin engines.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Collection, Iterable, Iterator, Sequence
from typing import Optional

from .compiled import (
    _CLASSES,
    _NO_ROUTE,
    _shrink,
    _signed_typecode,
    _unsigned_typecode,
    CompiledGraph,
    CompiledRoutingState,
)
from .routes import NodeRoute, Seed

__all__ = [
    "BatchOriginView",
    "BatchRoutingState",
    "DEFAULT_BATCH",
    "propagate_batch",
    "resolve_batch",
]

#: default batch width; 64–512 keeps the big-int masks in the sweet spot
#: where one word-sliced sweep serves many origins without the masks
#: outgrowing the CPU cache.
DEFAULT_BATCH = 256


def resolve_batch(batch: Optional[int | str] = None) -> int:
    """Normalize a ``batch`` knob: explicit value, else the ``REPRO_BATCH``
    environment variable, else :data:`DEFAULT_BATCH`.

    Returns the batch width as an int ``>= 1``; ``0`` and ``1`` both mean
    "no batching" (consumers fall back to the per-origin path) and
    normalize to ``1``.
    """
    if batch is None:
        batch = os.environ.get("REPRO_BATCH", DEFAULT_BATCH)
    width = int(batch)
    if width < 0:
        raise ValueError(f"batch must be >= 0, got {width}")
    return max(width, 1)


class BatchRoutingState:
    """The result of one bit-parallel multi-origin sweep.

    Bit *b* of every mask corresponds to ``origins[b]``.  ``_cust`` /
    ``_peer`` / ``_prov`` hold, per node index, the bitmask of origins
    whose best route at that node has the respective class; ``_buckets``
    maps ``(route class, path length)`` to the per-node masks of origins
    that *arrived* with exactly that class and length.  Together they are
    the whole routing state of all B origins — per-origin arrays are
    derived views (:meth:`view`), not storage.

    The compiled graph is carried only as a reference for on-demand
    parent reconstruction; pickling drops it (workers return batches to
    the parent, which re-binds its own copy via :meth:`bind_graph`).
    """

    def __init__(
        self,
        cgraph: CompiledGraph,
        origins: tuple[int, ...],
        cust: list[int],
        peer: list[int],
        prov: list[int],
        buckets: dict[tuple[int, int], dict[int, int]],
    ) -> None:
        self._graph: Optional[CompiledGraph] = cgraph
        self.origins = origins
        self._cust = cust
        self._peer = peer
        self._prov = prov
        self._buckets = buckets
        self._bit_of: dict[int, int] = {}
        for b, origin in enumerate(origins):
            self._bit_of.setdefault(origin, b)
        self._views: dict[int, "BatchOriginView"] = {}

    @property
    def width(self) -> int:
        """The batch width B (number of origin bits)."""
        return len(self.origins)

    @property
    def graph(self) -> CompiledGraph:
        if self._graph is None:
            raise RuntimeError(
                "BatchRoutingState is unbound (it crossed a process "
                "boundary); call bind_graph(graph) before taking views"
            )
        return self._graph

    def bind_graph(self, graph) -> "BatchRoutingState":
        """Re-attach a compiled graph after unpickling; returns ``self``."""
        self._graph = graph.compile()
        return self

    # -- per-origin views ------------------------------------------------
    def view_at(self, bit: int) -> "BatchOriginView":
        """The lazy per-origin view for bit ``bit`` (cached)."""
        view = self._views.get(bit)
        if view is None:
            view = BatchOriginView(self, bit)
            self._views[bit] = view
        return view

    def view(self, origin: int) -> "BatchOriginView":
        """The lazy view for ``origin`` (its first bit, if repeated)."""
        return self.view_at(self._bit_of[origin])

    def views(self) -> Iterator[tuple[int, "BatchOriginView"]]:
        """``(origin, view)`` pairs in batch (input) order."""
        for bit, origin in enumerate(self.origins):
            yield origin, self.view_at(bit)

    # -- pickling: drop the graph reference and the view cache ------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_graph"] = None
        state["_views"] = {}
        return state


def _restore_compiled(state: dict) -> CompiledRoutingState:
    """Unpickle helper: rebuild a plain ``CompiledRoutingState``."""
    obj = CompiledRoutingState.__new__(CompiledRoutingState)
    obj.__dict__.update(state)
    return obj


class BatchOriginView(CompiledRoutingState):
    """One origin's routing state, read lazily off a batch's masks.

    The scalar queries (``has_route`` / ``path_length`` / ``route_class``
    / per-AS ``route`` / ``reachable_ases``) are answered straight from
    the batch bitmasks and arrival buckets — no per-origin arrays exist
    until something touches them.  The flat arrays of the parent class
    (``_route_class`` … ``_routed``, consumed by the metric kernels and
    ``routes`` materialization) are reconstructed on first attribute
    access by scanning CSR neighbors for class/length-consistent
    predecessors, after which the view behaves exactly like the
    ``CompiledRoutingState`` the per-origin kernel would have produced.

    Pickling converts to a standalone ``CompiledRoutingState`` so a view
    never drags its whole batch across a process boundary.
    """

    #: attributes materialized together on first touch
    _LAZY = frozenset(
        (
            "_route_class",
            "_length",
            "_parent_head",
            "_pool_parent",
            "_pool_next",
            "_routed",
        )
    )

    def __init__(self, batch: BatchRoutingState, bit: int) -> None:
        origin = batch.origins[bit]
        self._batch = batch
        self._bit = bit
        self._seed_index = batch.graph.index[origin]
        self.seeds = (Seed(asn=origin),)
        self.seed_asns = frozenset((origin,))
        self._asns = batch.graph.asns
        self._origin_mask = None  # single seed: the fast path
        self._materialized = None
        self._metric_dag = None
        self._metric_counts = None

    def __getattr__(self, name: str):
        # only the lazy array attributes are synthesized; anything else
        # missing is a genuine error
        if name in BatchOriginView._LAZY:
            self._build_arrays()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- mask-backed scalar queries (never build the arrays) ---------------
    def _class_of(self, i: int) -> int:
        """Route class code at node ``i`` for this bit (``_NO_ROUTE`` if
        unrouted), read off the three class masks."""
        bit = self._bit
        batch = self._batch
        if batch._cust[i] >> bit & 1:
            return 0
        if batch._peer[i] >> bit & 1:
            return 1
        if batch._prov[i] >> bit & 1:
            return 2
        return _NO_ROUTE

    def _level_of(self, i: int, cls: int) -> int:
        """Arrival level of this bit at node ``i`` (class ``cls``)."""
        bit = self._bit
        for (c, level), bucket in self._batch._buckets.items():
            if c != cls:
                continue
            mask = bucket.get(i)
            if mask is not None and mask >> bit & 1:
                return level
        raise AssertionError(
            f"bit {bit} routed at node {i} but missing from arrival buckets"
        )

    def has_route(self, asn: int) -> bool:
        i = self._idx(asn)
        return i is not None and self._class_of(i) != _NO_ROUTE

    def route_class(self, asn: int):
        i = self._idx(asn)
        if i is None:
            return None
        cls = self._class_of(i)
        return None if cls == _NO_ROUTE else _CLASSES[cls]

    def path_length(self, asn: int) -> Optional[int]:
        i = self._idx(asn)
        if i is None:
            return None
        cls = self._class_of(i)
        if cls == _NO_ROUTE:
            return None
        return self._level_of(i, cls)

    def origins_at(self, asn: int) -> frozenset[str]:
        if self.has_route(asn):
            return frozenset((self.seeds[0].key,))
        return frozenset()

    def _parent_indices(self, i: int, cls: int, level: int) -> list[int]:
        """Class/length-consistent predecessors of node ``i``, ascending.

        Scans the CSR neighbor row the sender side of the phase would
        have exported across: customers for customer routes (they export
        up), peers holding customer routes for peer routes, providers
        holding any route for provider routes.  First-arrival levels make
        "arrived at ``level - 1``" exactly the tied-parent condition.
        """
        cg = self._batch.graph
        bit = self._bit
        buckets = self._batch._buckets
        if cls == 0:
            off, nbr = cg.customer_off, cg.customer_nbr
            senders = (buckets.get((0, level - 1)),)
        elif cls == 1:
            off, nbr = cg.peer_off, cg.peer_nbr
            senders = (buckets.get((0, level - 1)),)
        else:
            off, nbr = cg.provider_off, cg.provider_nbr
            senders = (
                buckets.get((0, level - 1)),
                buckets.get((1, level - 1)),
                buckets.get((2, level - 1)),
            )
        parents: list[int] = []
        for p in nbr[off[i] : off[i + 1]]:
            for bucket in senders:
                if bucket is None:
                    continue
                mask = bucket.get(p)
                if mask is not None and mask >> bit & 1:
                    parents.append(p)
                    break
        return parents

    def route(self, asn: int) -> Optional[NodeRoute]:
        """Per-AS :class:`NodeRoute` without materializing ``routes``."""
        if self._materialized is not None:
            return self._materialized.get(asn)
        i = self._idx(asn)
        if i is None:
            return None
        cls = self._class_of(i)
        if cls == _NO_ROUTE:
            return None
        level = self._level_of(i, cls)
        asns = self._asns
        if i == self._seed_index:
            parents: set[int] = set()
        else:
            parents = {
                asns[p] for p in self._parent_indices(i, cls, level)
            }
        return NodeRoute(_CLASSES[cls], level, parents, {self.seeds[0].key})

    def reachable_ases(self) -> frozenset[int]:
        bit = self._bit
        batch = self._batch
        cust, peer, prov = batch._cust, batch._peer, batch._prov
        asns = self._asns
        return frozenset(
            asns[i]
            for i in range(len(asns))
            if (cust[i] | peer[i] | prov[i]) >> bit & 1
        ) - self.seed_asns

    def ases_with_origin(self, key: str) -> frozenset[int]:
        if key != self.seeds[0].key:
            return frozenset()
        return self.reachable_ases() | self.seed_asns

    # -- lazy per-origin array reconstruction ------------------------------
    def _build_arrays(self) -> None:
        """Materialize the flat per-origin arrays the kernels consume.

        One pass over the arrival buckets transposes this bit's column
        out of the batch (every routed node appears in exactly one
        bucket), then one CSR scan per routed node rebuilds the parent
        pools; neighbor rows are ascending, so pools come out in the
        canonical ascending order the metric kernels expect.
        """
        batch = self._batch
        cg = batch.graph
        bit = self._bit
        n = cg.n
        rc = bytearray([_NO_ROUTE]) * n
        ln = array("q", bytes(8 * n))
        routed: list[int] = []
        for (cls, level), bucket in batch._buckets.items():
            for i, mask in bucket.items():
                if mask >> bit & 1:
                    rc[i] = cls
                    ln[i] = level
                    routed.append(i)
        routed.sort()

        head = array("i", b"\xff" * (4 * n))  # -1: no parents
        pool_parent = array("i")
        pool_next = array("i")
        pp_append = pool_parent.append
        pn_append = pool_next.append
        poff, pnbr = cg.provider_off, cg.provider_nbr
        coff, cnbr = cg.customer_off, cg.customer_nbr
        qoff, qnbr = cg.peer_off, cg.peer_nbr
        seed_i = self._seed_index
        for i in routed:
            if i == seed_i:
                continue
            cls = rc[i]
            want = ln[i] - 1
            if cls == 0:
                row = cnbr[coff[i] : coff[i + 1]]
                for p in row:
                    if rc[p] == 0 and ln[p] == want:
                        pp_append(p)
                        pn_append(head[i])
                        head[i] = len(pool_parent) - 1
            elif cls == 1:
                row = qnbr[qoff[i] : qoff[i + 1]]
                for p in row:
                    if rc[p] == 0 and ln[p] == want:
                        pp_append(p)
                        pn_append(head[i])
                        head[i] = len(pool_parent) - 1
            else:
                row = pnbr[poff[i] : poff[i + 1]]
                for p in row:
                    if rc[p] != _NO_ROUTE and ln[p] == want:
                        pp_append(p)
                        pn_append(head[i])
                        head[i] = len(pool_parent) - 1

        d = self.__dict__
        d["_route_class"] = rc
        d["_length"] = ln
        d["_parent_head"] = head
        d["_pool_parent"] = pool_parent
        d["_pool_next"] = pool_next
        d["_routed"] = routed

    def to_compiled(self) -> CompiledRoutingState:
        """A standalone ``CompiledRoutingState`` copy of this view.

        Arrays are shrunk to the smallest typecodes that fit, exactly as
        the per-origin kernel does, so the copy pickles compactly.
        """
        rc = self._route_class
        ln = self._length
        routed = self._routed
        n = len(self._asns)
        pool_size = len(self._pool_parent)
        node_code = _unsigned_typecode(max(n - 1, 0))
        pool_code = _signed_typecode(pool_size)
        max_len = max((ln[i] for i in routed), default=0)
        return CompiledRoutingState(
            self._asns,
            self.seeds,
            bytearray(rc),
            _shrink(ln, _unsigned_typecode(max_len)),
            _shrink(self._parent_head, pool_code),
            _shrink(self._pool_parent, node_code),
            _shrink(self._pool_next, pool_code),
            array(node_code, routed),
            None,
        )

    def __reduce__(self):
        # never pickle the whole batch through a view
        return (_restore_compiled, (self.to_compiled().__getstate__(),))


def propagate_batch(
    graph,
    origins: Sequence[int] | Iterable[int],
    excluded: Collection[int] = frozenset(),
) -> BatchRoutingState:
    """One bit-parallel sweep serving every origin in ``origins``.

    Each origin is an independent plain announcement (``Seed(asn=o)``)
    over ``graph`` minus the shared ``excluded`` set; the per-origin
    views of the returned :class:`BatchRoutingState` are equivalent to
    ``propagate_compiled(graph, Seed(asn=o), excluded=excluded)``.

    ``graph`` may be an ``ASGraph`` (compiled through its cache) or a
    :class:`~repro.bgpsim.compiled.CompiledGraph`.  Duplicate origins
    are allowed (each bit propagates independently).
    """
    cg: CompiledGraph = graph.compile()
    origins = tuple(origins)
    if not origins:
        raise ValueError("at least one origin required")
    excluded = frozenset(excluded)
    index = cg.index
    n = cg.n
    for origin in origins:
        if origin not in index:
            raise KeyError(f"seed AS{origin} not in graph")
        if origin in excluded:
            raise ValueError(f"seed AS{origin} is excluded")
    ex = bytearray(n)
    for asn in excluded:
        i = index.get(asn)
        if i is not None:
            ex[i] = 1

    from .vectorized import propagate_batch_vector

    return propagate_batch_vector(cg, origins, ex)
