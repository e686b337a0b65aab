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
mask matrices (:func:`repro.bgpsim.vectorized.propagate_batch_vector`),
and the batch keeps its arrival buckets as numpy arrays.

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

Each bucket entry names a node, a ``(class, level)`` pair and the mask
of origin bits that first arrived there with it; every routed (node,
bit) pair appears in exactly one entry, so a view's route class and path
length columns are one vectorised read of its bit.  The sweep also
records every tied parent edge, with the mask of the origins it is tied
for, as rows sorted by (child, parent): a view's parent pools are the
rows carrying its bit, and the batch metric kernel
(:func:`~repro.bgpsim.vectorized.build_metric_dag_vector`) reads them
for the whole batch without building any view.

The result is a :class:`BatchRoutingState` whose per-origin
:class:`BatchOriginView` objects subclass
:class:`~repro.bgpsim.compiled.CompiledRoutingState`: the cheap queries
(``has_route`` / ``path_length`` / ``route_class``) read this bit's
class and length columns, while the parent pools the per-AS ``route``
and the metric kernels consume are built lazily on first touch, at the
per-origin kernel's compact typecodes — so every existing consumer,
including the per-state kernels and the shard writer, runs unchanged.
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

from array import array
from collections.abc import Collection, Iterable, Iterator, Sequence
from typing import Optional

from .compiled import (
    _CLASSES,
    _NO_ROUTE,
    CompiledGraph,
    CompiledRoutingState,
)
from .routes import Seed

__all__ = [
    "BatchOriginView",
    "BatchRoutingState",
    "DEFAULT_BATCH",
    "batched",
    "propagate_batch",
    "resolve_batch",
]

#: the batch width of every all-origin sweep; 64–512 keeps the mask
#: matrices in the sweet spot where one word-sliced sweep serves many
#: origins without the masks outgrowing the CPU cache.
DEFAULT_BATCH = 256


def batched(items: Sequence) -> list[tuple]:
    """``items`` cut into :data:`DEFAULT_BATCH`-wide tuples, in order
    (the last one ragged).  The width is read at call time, so tests can
    narrow it."""
    width = DEFAULT_BATCH
    return [tuple(items[i : i + width]) for i in range(0, len(items), width)]


def resolve_batch() -> int:
    """:data:`DEFAULT_BATCH`.  Kept for run records that stamp every
    resolved performance setting."""
    return DEFAULT_BATCH


class BatchRoutingState:
    """The result of one bit-parallel multi-origin sweep.

    Bit *b* of every mask corresponds to ``origins[b]``.  The state is
    the sweep's arrival buckets, concatenated: entry *e* says that the
    origins whose bits are set in column *e* of ``_masks`` (a ``(W, E)``
    uint64 matrix, word *w* holding bits ``64w`` to ``64w + 63``) first
    reached node ``_nodes[e]`` with route class ``_classes[e]`` and path
    length ``_levels[e]``.  Each (node, bit) pair arrives at most once,
    so these arrays are the whole routing state of all B origins —
    per-origin arrays are derived views (:meth:`view`), not storage.

    The tied parent edges are rows of their own: row *r* says that
    ``_tie_parent[r]`` is a tied parent of ``_tie_child[r]``, whose path
    length is ``_tie_level[r]``, for the origins whose bits are set in
    column *r* of ``_tie_masks`` (``(W, R)``, like ``_masks``).  Rows are
    sorted by (child, parent, level).

    ``graph`` is the compiled graph the sweep ran on, which the views
    and the batch metric kernel read.  The batch keeps no views: each
    :meth:`view_at` builds a fresh one, so a batch is freed by refcount
    as soon as neither it nor any of its views is referenced.
    """

    def __init__(
        self,
        cgraph: CompiledGraph,
        origins: tuple[int, ...],
        nodes,
        classes,
        levels,
        masks,
        tie_child,
        tie_parent,
        tie_level,
        tie_masks,
    ) -> None:
        self.graph = cgraph
        self.origins = origins
        self._nodes = nodes
        self._classes = classes
        self._levels = levels
        self._masks = masks
        self._tie_child = tie_child
        self._tie_parent = tie_parent
        self._tie_level = tie_level
        self._tie_masks = tie_masks
        #: where each node's tie rows start (built on first use)
        self._tie_starts: Optional[array] = None
        self._bit_of: dict[int, int] = {}
        for b, origin in enumerate(origins):
            self._bit_of.setdefault(origin, b)

    @property
    def width(self) -> int:
        """The batch width B (number of origin bits)."""
        return len(self.origins)

    def tied_parents(self, bit: int, i: int) -> tuple[int, ...]:
        """Node *i*'s tied parents for bit ``bit``, as ascending ASNs: the
        tie rows with child *i* that carry the bit (rows run in (child,
        parent) order, and each parent ties at one level per bit)."""
        starts = self._tie_starts
        if starts is None:
            starts = self._tie_starts = array(
                "q", self._tie_child.searchsorted(range(self.graph.n + 1))
            )
        lo, hi = starts[i], starts[i + 1]
        # one vectorised pass: a cloud or a tier-1 has hundreds of rows
        hit = (self._tie_masks[bit >> 6, lo:hi] >> (bit & 63)) & 1
        parents = self._tie_parent[lo:hi][hit.astype(bool)].tolist()
        asns = self.graph.asns
        return tuple([asns[p] for p in parents])

    # -- per-origin views ------------------------------------------------
    def view_at(self, bit: int) -> "BatchOriginView":
        """A fresh lazy per-origin view for bit ``bit``."""
        return BatchOriginView(self, bit)

    def view(self, origin: int) -> "BatchOriginView":
        """A fresh lazy view for ``origin`` (its first bit, if repeated)."""
        return BatchOriginView(self, self._bit_of[origin])

    def views(self) -> Iterator[tuple[int, "BatchOriginView"]]:
        """``(origin, view)`` pairs in batch (input) order.

        The batch keeps none of them, so a consumer that releases each
        view before taking the next frees that view's arrays at once: a
        sweep holds the batch buckets plus one live view, whatever its
        origin count.
        """
        for bit, origin in enumerate(self.origins):
            yield origin, BatchOriginView(self, bit)


def _restore_compiled(state: dict) -> CompiledRoutingState:
    """Unpickle helper: rebuild a plain ``CompiledRoutingState``."""
    obj = CompiledRoutingState.__new__(CompiledRoutingState)
    obj.__dict__.update(state)
    return obj


class BatchOriginView(CompiledRoutingState):
    """One origin's routing state, read lazily off a batch's buckets.

    The scalar queries (``has_route`` / ``path_length`` / ``route_class``
    / ``reachable_ases``) read this bit's route-class and path-length
    columns, picked out of the batch's arrival buckets on first use.
    The rest of the parent class's arrays (the parent pools and
    ``_routed``, consumed by ``route``, the per-state metric kernels and
    ``routes`` materialization) are built on first attribute access from
    the batch's tie rows that carry this bit, after which the view holds
    exactly the arrays — values and typecodes — that the per-origin
    kernel would have produced.

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
        self.seeds = (Seed(asn=origin),)
        self.seed_asns = frozenset((origin,))
        self._asns = batch.graph.asns
        self._column = None
        self._origin_mask = None  # single seed: the fast path
        self._materialized = None
        self._metric_dag = None
        self._metric_counts = None
        self._metric_sweep = None

    def __getattr__(self, name: str):
        # only the lazy array attributes are synthesized; anything else
        # missing is a genuine error
        if name in BatchOriginView._LAZY:
            self._build_arrays()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _idx(self, asn: int) -> Optional[int]:
        return self._batch.graph.index.get(asn)

    def _columns(self) -> tuple[bytearray, array]:
        """This bit's ``(route class, path length)`` columns (cached)."""
        column = self._column
        if column is None:
            from .vectorized import batch_view_column

            column = self._column = batch_view_column(
                self._batch, self._bit, len(self._asns)
            )
        return column

    # -- column-backed scalar queries (never build the parent pools) -------
    def has_route(self, asn: int) -> bool:
        i = self._idx(asn)
        return i is not None and self._columns()[0][i] != _NO_ROUTE

    def route_class(self, asn: int):
        i = self._idx(asn)
        if i is None:
            return None
        cls = self._columns()[0][i]
        return None if cls == _NO_ROUTE else _CLASSES[cls]

    def path_length(self, asn: int) -> Optional[int]:
        i = self._idx(asn)
        if i is None:
            return None
        rc, ln = self._columns()
        return None if rc[i] == _NO_ROUTE else ln[i]

    def origins_at(self, asn: int) -> frozenset[str]:
        if self.has_route(asn):
            return frozenset((self.seeds[0].key,))
        return frozenset()

    def reachable_ases(self) -> frozenset[int]:
        rc = self._columns()[0]
        asns = self._asns
        return frozenset(
            asns[i] for i, cls in enumerate(rc) if cls != _NO_ROUTE
        ) - self.seed_asns

    def ases_with_origin(self, key: str) -> frozenset[int]:
        if key != self.seeds[0].key:
            return frozenset()
        return self.reachable_ases() | self.seed_asns

    def sorted_parents(self, asn: int) -> Optional[tuple[int, ...]]:
        """Read off the batch's tie rows for this bit, so a walk that
        touches a handful of ASes never pays for :meth:`_build_arrays`."""
        i = self._idx(asn)
        if i is None or self._columns()[0][i] == _NO_ROUTE:
            return None
        return self._batch.tied_parents(self._bit, i)

    # -- lazy per-origin array reconstruction ------------------------------
    def _build_arrays(self) -> None:
        """Materialize the flat per-origin arrays the kernels consume:
        the class/length columns plus the parent pools and routed list
        of :func:`~repro.bgpsim.vectorized.batch_view_pool`."""
        from .vectorized import batch_view_pool

        rc, ln = self._columns()
        head, pool_parent, pool_next, routed = batch_view_pool(
            self._batch, self._bit, rc
        )
        d = self.__dict__
        d["_route_class"] = rc
        d["_length"] = ln
        d["_parent_head"] = head
        d["_pool_parent"] = pool_parent
        d["_pool_next"] = pool_next
        d["_routed"] = routed

    def to_compiled(self) -> CompiledRoutingState:
        """A standalone ``CompiledRoutingState`` copy of this view (its
        arrays already have the per-origin kernel's compact typecodes,
        so the copy pickles compactly)."""
        return CompiledRoutingState(
            self._asns,
            self.seeds,
            bytearray(self._route_class),
            self._length[:],
            self._parent_head[:],
            self._pool_parent[:],
            self._pool_next[:],
            self._routed[:],
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
