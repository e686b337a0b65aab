"""Shared per-origin routing-state cache.

Several pipelines (traceroute campaigns, route collectors, path containment
checks, hegemony) need the propagation state for many origins over the same
graph; this cache computes each origin once.  A ``RoutingState`` for an
Internet-scale graph is large (one ``NodeRoute`` per routed AS), so the
cache is a bounded LRU: at most ``maxsize`` states are retained, the least
recently used origin is evicted first, and hit/miss/eviction counters are
exposed through :meth:`RoutingStateCache.stats` so sweeps can verify their
access pattern actually fits the bound.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from ..topology.asgraph import ASGraph
from .engine import propagate, resolve_engine
from .routes import RoutingState, Seed


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of a cache's counters.

    ``prefetch_skipped`` counts origins a bounded cache declined to
    prefetch (the request exceeded ``maxsize``; they recompute lazily on
    first use), ``prefetch_chunks`` the batched sweeps prefetches issued.
    ``disk_hits``/``disk_misses`` count consults of the attached shard
    store (always 0 without one): a disk hit served a precomputed
    mmap-backed state instead of propagating.
    """

    size: int
    maxsize: Optional[int]
    hits: int
    misses: int
    evictions: int
    prefetch_skipped: int = 0
    prefetch_chunks: int = 0
    #: times invalidate() dropped the cached states (topology mutations)
    baseline_invalidations: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def tiers(self) -> dict[str, int]:
        """Lookups answered per tier: warm LRU, mmap disk, propagation."""
        return {
            "lru": self.hits,
            "disk": self.disk_hits,
            "computed": self.misses,
        }


class DigestGate:
    """Memoized "does this graph still match that corpus digest?" check.

    Every tier built on precomputed shards — the cache's disk tier, the
    query service's metric tier — must refuse to serve once the live
    topology diverges from the corpus the shards were computed for.
    Hashing the graph per lookup would dominate the fast path, so the
    gate memoizes the verdict on the graph's *compiled-snapshot
    identity*: ``ASGraph.compile()`` returns a cached object until a
    mutation invalidates it, making the steady-state consult two ``is``
    checks.  Each topology change forces exactly one re-hash — closing
    the gate on mismatch, reopening it when an inverse event brings the
    digest back.
    """

    __slots__ = ("graph", "digest", "_ok_cg", "_bad_cg")

    def __init__(self, graph: ASGraph, digest: str, verified: bool = False):
        self.graph = graph
        self.digest = digest
        #: compiled snapshot the digest matched / mismatched
        self._ok_cg = graph.compile() if verified else None
        self._bad_cg = None

    def ready(self) -> bool:
        """Whether the current topology still matches the digest."""
        cg = self.graph.compile()
        if cg is self._ok_cg:
            return True
        if cg is self._bad_cg:
            return False
        from .shards import graph_digest

        if graph_digest(cg) == self.digest:
            self._ok_cg, self._bad_cg = cg, None
            return True
        self._bad_cg, self._ok_cg = cg, None
        return False


class RoutingStateCache:
    """Memoized ``propagate(graph, Seed(origin))`` per origin, LRU-bounded.

    ``maxsize=None`` (the default) keeps every state, preserving the
    historical unbounded behaviour for small scenarios; any positive bound
    caps the number of retained states, evicting the least recently used
    origin.  Evicted origins are transparently recomputed on the next
    request.

    ``engine`` selects the propagation engine (see
    :func:`~repro.bgpsim.engine.propagate`); with the default compiled
    engine the cache holds compact
    :class:`~repro.bgpsim.compiled.CompiledRoutingState` objects — array
    bundles that only materialize per-AS route objects when a consumer
    touches ``state.routes`` — so a bounded cache holds far more origins
    in the same memory.

    ``shards`` (or a later :meth:`attach_shards`) adds a **disk tier**:
    a :class:`~repro.bgpsim.shards.ShardStore` of precomputed
    mmap-backed states consulted between the LRU and propagation, so an
    LRU miss over a precomputed corpus costs an offset lookup + six
    ``memoryview`` casts instead of a graph sweep.  The store's graph
    digest is verified on attach and re-verified whenever the graph's
    compiled snapshot changes (timeline events), so a mutated topology
    silently bypasses the disk tier instead of serving stale states —
    and re-enables it when an inverse event restores the topology.
    """

    def __init__(
        self,
        graph: ASGraph,
        maxsize: Optional[int] = None,
        engine: Optional[str] = None,
        shards=None,
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be None or >= 1")
        self.graph = graph
        self.maxsize = maxsize
        self.engine = engine
        self._states: OrderedDict[int, RoutingState] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._prefetch_skipped = 0
        self._prefetch_chunks = 0
        self._baseline_invalidations = 0
        self._disk_hits = 0
        self._disk_misses = 0
        self.shards = None
        self._gate: Optional[DigestGate] = None
        if shards is not None:
            self.attach_shards(shards)

    # -- disk tier ------------------------------------------------------
    def attach_shards(self, store) -> None:
        """Attach a precomputed shard store as the disk tier.

        The store's graph digest must match this cache's graph
        (:class:`~repro.bgpsim.shards.ShardError` otherwise).
        """
        store.verify(self.graph)
        self.shards = store
        self._gate = DigestGate(self.graph, store.digest, verified=True)

    def detach_shards(self):
        """Drop the disk tier; returns the store (not closed)."""
        store, self.shards = self.shards, None
        self._gate = None
        return store

    def _disk_ready(self) -> bool:
        """Whether the disk tier may serve the *current* topology.

        Delegates to the :class:`DigestGate`, so steady-state consults
        cost two ``is`` checks and each topology change one re-hash.
        """
        return self.shards is not None and self._gate.ready()

    def _from_disk(self, origin: int) -> Optional[RoutingState]:
        """Consult the disk tier for ``origin`` (counted in stats) and
        insert a hit into the LRU."""
        if not self._disk_ready():
            return None
        try:
            state = self.shards.state_for(origin)
        except KeyError:
            self._disk_misses += 1
            return None
        self._disk_hits += 1
        self._insert(origin, state)
        return state

    def state_for(self, origin: int) -> RoutingState:
        state = self._states.get(origin)
        if state is not None:
            self._hits += 1
            self._states.move_to_end(origin)
            return state
        state = self._from_disk(origin)
        if state is not None:
            return state
        self._misses += 1
        state = propagate(self.graph, Seed(asn=origin), engine=self.engine)
        self._insert(origin, state)
        return state

    def _insert(self, origin: int, state: RoutingState) -> None:
        self._states[origin] = state
        self._states.move_to_end(origin)
        if self.maxsize is not None:
            while len(self._states) > self.maxsize:
                self._states.popitem(last=False)
                self._evictions += 1

    def prefetch(self, origins: Iterable[int]) -> int:
        """Warm the cache for ``origins``; returns how many were computed.

        Missing origins are served from the disk tier when a shard store
        is attached, and otherwise propagated — batched through the
        bit-parallel multi-origin kernel — and inserted in input order.
        With a bounded cache only the *first* ``maxsize`` missing origins
        are computed
        (consumers drain prefetched sweeps in input order, so these are
        the ones read before any eviction) and the rest are skipped
        rather than computed-then-evicted unread; the skip/chunk
        decisions are visible in :meth:`stats`.
        """
        from .multiorigin import batched
        from .parallel import propagate_origins

        missing = []
        seen = set()
        for origin in origins:
            if origin in seen:
                continue
            seen.add(origin)
            if origin in self._states:
                self._states.move_to_end(origin)
                self._hits += 1
            elif self._from_disk(origin) is None:
                missing.append(origin)
        if self.maxsize is not None and len(missing) > self.maxsize:
            self._prefetch_skipped += len(missing) - self.maxsize
            missing = missing[: self.maxsize]
        if not missing:
            return 0
        # the reference engine, the oracle, has no batch kernel
        self._prefetch_chunks += (
            len(batched(missing))
            if resolve_engine(self.engine) == "compiled"
            else len(missing)
        )
        for origin, state in propagate_origins(
            self.graph, missing, engine=self.engine
        ):
            self._misses += 1
            self._insert(origin, state)
        return len(missing)

    def stats(self) -> CacheStats:
        return CacheStats(
            size=len(self._states),
            maxsize=self.maxsize,
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            prefetch_skipped=self._prefetch_skipped,
            prefetch_chunks=self._prefetch_chunks,
            baseline_invalidations=self._baseline_invalidations,
            disk_hits=self._disk_hits,
            disk_misses=self._disk_misses,
        )

    def __contains__(self, origin: int) -> bool:
        return origin in self._states

    def __len__(self) -> int:
        return len(self._states)

    def invalidate(self) -> int:
        """Drop every cached state because the topology changed.

        Unlike :meth:`clear` the hit/miss counters survive and the drop
        is counted in ``stats().baseline_invalidations``, so timeline
        consumers (which must invalidate on every topology-mutating
        event) leave an audit trail that the silent-staleness hazard is
        actually being handled.  Returns the number of states dropped.
        """
        dropped = len(self._states)
        self._states.clear()
        self._baseline_invalidations += 1
        return dropped

    def install(self, origin: int, state: RoutingState) -> None:
        """Insert a externally-computed state for ``origin``.

        Timelines use this to seed post-event states as the next
        events' baselines after :meth:`invalidate`; the normal LRU
        bookkeeping (bound, evictions) applies.
        """
        self._insert(origin, state)

    def clear(self) -> None:
        """Drop all cached states (counters are reset too)."""
        self._states.clear()
        self._hits = self._misses = self._evictions = 0
        self._prefetch_skipped = self._prefetch_chunks = 0
        self._baseline_invalidations = 0
        self._disk_hits = self._disk_misses = 0
