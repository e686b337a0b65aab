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
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from typing import Optional

from ..topology.asgraph import ASGraph
from .engine import propagate, resolve_engine, resolve_stream
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
        batch: Optional[int] = None,
        shards=None,
        stream: bool | str | None = None,
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be None or >= 1")
        self.graph = graph
        self.maxsize = maxsize
        self.engine = engine
        #: batch width for prefetch sweeps (None: REPRO_BATCH / default)
        self.batch = batch
        #: default ``stream`` mode for :meth:`states_for_many`
        #: (None: per-call knob, else ``REPRO_STREAM`` / auto)
        self.stream = stream
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

    def _on_disk(self, origin: int) -> bool:
        """Uncounted peek: could the disk tier serve ``origin``?"""
        return self._disk_ready() and origin in self.shards

    def _from_disk(
        self, origin: int, insert: bool = True
    ) -> Optional[RoutingState]:
        """Consult the disk tier for ``origin`` (counted in stats)."""
        if not self._disk_ready():
            return None
        try:
            state = self.shards.state_for(origin)
        except KeyError:
            self._disk_misses += 1
            return None
        self._disk_hits += 1
        if insert:
            self._insert(origin, state)
        return state

    def _batch_width(self, batch: Optional[int], cap: bool = True) -> int:
        """Effective batch width for a sweep: the per-call override, else
        the cache's knob, else the environment default — capped at the
        cache bound (a wider batch would only compute states that evict
        each other before first use; streaming sweeps that bypass the
        LRU pass ``cap=False``) and forced to 1 on the reference engine
        (which has no batch kernel)."""
        from .multiorigin import resolve_batch

        width = resolve_batch(self.batch if batch is None else batch)
        try:
            if resolve_engine(self.engine) == "reference":
                return 1
        except ValueError:
            return 1  # unknown engine string: the sweep itself will raise
        if cap and self.maxsize is not None:
            width = min(width, self.maxsize)
        return max(width, 1)

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

    def prefetch(
        self,
        origins: Iterable[int],
        workers: int | str | None = None,
        batch: Optional[int] = None,
    ) -> int:
        """Warm the cache for ``origins``; returns how many were computed.

        Missing origins are served from the disk tier when a shard store
        is attached, and otherwise propagated — batched through the
        bit-parallel multi-origin kernel, in parallel when ``workers``
        asks for it — and inserted in input order.  With a bounded cache
        the request is chunked to the cache bound: the *first*
        ``maxsize`` missing origins are computed (consumers drain
        prefetched sweeps in input order, so these are the ones read
        before any eviction) and the rest are skipped rather than
        computed-then-evicted unread; the skip/chunk decisions are
        visible in :meth:`stats`.
        """
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
        width = self._batch_width(batch)
        self._prefetch_chunks += -(-len(missing) // width)
        for origin, state in propagate_origins(
            self.graph,
            missing,
            workers=workers,
            engine=self.engine,
            batch=width,
        ):
            self._misses += 1
            self._insert(origin, state)
        return len(missing)

    def states_for_many(
        self,
        origins: Iterable[int],
        workers: int | str | None = None,
        batch: Optional[int] = None,
        stream: bool | str | None = None,
        excluded: Collection[int] = frozenset(),
    ) -> Iterator[tuple[int, RoutingState]]:
        """``(origin, state)`` pairs in input order, batching the misses.

        Unlike :meth:`prefetch` + :meth:`state_for`, this streams: runs
        of missing origins are computed as bit-parallel batches and
        yielded as they complete, so an over-``maxsize`` sweep still
        pays one batched sweep per chunk — never a fallback to
        per-origin recomputes — while the cache holds at most
        ``maxsize`` states at any moment.  Cache and disk hits are
        served from their tiers either way.

        ``stream`` resolves through
        :func:`~repro.bgpsim.engine.resolve_stream` (per-call value,
        else the cache's knob, else ``REPRO_STREAM``; ``auto`` streams
        at paper scale).  When it resolves true, computed states bypass
        the LRU: views are yielded *one at a time* and each is dropped
        from its batch the moment the caller releases it, so a
        full-origin-set sweep — or ``repro precompute`` — runs in
        **O(batch) peak memory** regardless of the origin count
        (tracemalloc-asserted in ``tests/test_shards.py`` and
        ``tests/test_streaming_sweeps.py``).  The batch width is then
        also not capped at ``maxsize``.  The disk tier still serves
        precomputed origins per window, so a sharded corpus accelerates
        streaming sweeps too.

        ``excluded`` propagates every *computed* state over the subgraph
        without those ASes (the hierarchy-free sweeps of §6–7).  A
        non-empty set bypasses the LRU **and** disk tiers entirely —
        both hold plain full-graph states keyed by origin, which must
        never be conflated with subgraph states.
        """
        origin_list = list(origins)
        excluded = frozenset(excluded)
        knob = stream if stream is not None else self.stream
        streaming = resolve_stream(knob, len(self.graph))
        width = self._batch_width(batch, cap=not streaming)
        if streaming:
            yield from self._stream_states(
                origin_list, width, workers, excluded
            )
            return
        if excluded:
            yield from self._sweep_uncached(
                origin_list, width, workers, excluded
            )
            return
        from .parallel import propagate_origins

        i, n = 0, len(origin_list)
        while i < n:
            origin = origin_list[i]
            state = self._states.get(origin)
            if state is not None:
                self._hits += 1
                self._states.move_to_end(origin)
                yield origin, state
                i += 1
                continue
            state = self._from_disk(origin)
            if state is not None:
                yield origin, state
                i += 1
                continue
            # gather the next window's distinct missing origins, one batch
            chunk: list[int] = []
            chunk_set: set[int] = set()
            j = i
            while j < n and len(chunk) < width:
                candidate = origin_list[j]
                if (
                    candidate not in self._states
                    and candidate not in chunk_set
                    and not self._on_disk(candidate)
                ):
                    chunk.append(candidate)
                    chunk_set.add(candidate)
                j += 1
            computed: dict[int, RoutingState] = {}
            self._prefetch_chunks += 1
            for o, s in propagate_origins(
                self.graph,
                chunk,
                workers=workers,
                engine=self.engine,
                batch=width,
            ):
                self._misses += 1
                self._insert(o, s)
                computed[o] = s
            while i < j:
                origin = origin_list[i]
                state = computed.get(origin)
                if state is None:
                    cached = self._states.get(origin)
                    if cached is not None:
                        self._hits += 1
                        self._states.move_to_end(origin)
                        state = cached
                    else:
                        state = self._from_disk(origin)
                    if state is None:
                        # evicted by the chunk's own inserts (bounded
                        # cache); recompute through the normal path
                        state = self.state_for(origin)
                yield origin, state
                state = None
                i += 1
            computed.clear()

    def _sweep_uncached(
        self,
        origin_list: list[int],
        width: int,
        workers: int | str | None,
        excluded: frozenset[int],
    ) -> Iterator[tuple[int, RoutingState]]:
        """Eager subgraph sweep: no tier is consulted or populated.

        Duplicate origins within a batch window share one propagation;
        the window's states are retained together (the historical eager
        footprint), then released before the next window.
        """
        from .parallel import propagate_origins

        i, n = 0, len(origin_list)
        while i < n:
            chunk: list[int] = []
            chunk_set: set[int] = set()
            j = i
            while j < n and len(chunk) < width:
                candidate = origin_list[j]
                if candidate not in chunk_set:
                    chunk.append(candidate)
                    chunk_set.add(candidate)
                j += 1
            computed: dict[int, RoutingState] = {}
            self._prefetch_chunks += 1
            for o, s in propagate_origins(
                self.graph,
                chunk,
                workers=workers,
                engine=self.engine,
                batch=width,
                excluded=excluded,
            ):
                self._misses += 1
                computed[o] = s
            while i < j:
                yield origin_list[i], computed[origin_list[i]]
                i += 1
            computed.clear()

    def _stream_states(
        self,
        origin_list: list[int],
        width: int,
        workers: int | str | None,
        excluded: frozenset[int],
    ) -> Iterator[tuple[int, RoutingState]]:
        """O(batch)-memory sweep: yield each view as it is computed.

        The interleaving is the point: the window's views are *pulled*
        from the propagation iterator one at a time as the window is
        replayed, so at any moment only the live batch masks plus the
        one or two views in flight are resident — never the whole
        window's materialized arrays (the eager path's footprint).
        Only origins duplicated within a window are parked until their
        last occurrence.
        """
        from .parallel import propagate_origins

        use_tiers = not excluded
        i, n = 0, len(origin_list)
        while i < n:
            origin = origin_list[i]
            if use_tiers:
                state = self._states.get(origin)
                if state is not None:
                    self._hits += 1
                    self._states.move_to_end(origin)
                    yield origin, state
                    i += 1
                    continue
                state = self._from_disk(origin, insert=False)
                if state is not None:
                    yield origin, state
                    i += 1
                    continue
            # gather the next window's distinct missing origins, one batch
            chunk: list[int] = []
            chunk_set: set[int] = set()
            last_use: dict[int, int] = {}
            j = i
            while j < n and len(chunk) < width:
                candidate = origin_list[j]
                if candidate in chunk_set:
                    last_use[candidate] = j
                elif not use_tiers or (
                    candidate not in self._states
                    and not self._on_disk(candidate)
                ):
                    chunk.append(candidate)
                    chunk_set.add(candidate)
                    last_use[candidate] = j
                j += 1
            self._prefetch_chunks += 1
            pending = propagate_origins(
                self.graph,
                chunk,
                workers=workers,
                engine=self.engine,
                batch=width,
                excluded=excluded,
            )
            held: dict[int, RoutingState] = {}
            while i < j:
                origin = origin_list[i]
                if origin in chunk_set:
                    state = held.pop(origin, None)
                    if state is None:
                        # the chunk preserves first-occurrence order, so
                        # this pulls exactly the next view
                        for o, s in pending:
                            self._misses += 1
                            if o == origin:
                                state = s
                                break
                            held[o] = s  # defensive: out-of-order view
                    if last_use[origin] > i:
                        held[origin] = state  # duplicated later in window
                else:
                    # a warm tier covered this origin at gather time
                    state = self._states.get(origin)
                    if state is not None:
                        self._hits += 1
                        self._states.move_to_end(origin)
                    else:
                        state = self._from_disk(origin, insert=False)
                    if state is None:
                        state = self.state_for(origin)
                yield origin, state
                state = None
                i += 1
            held.clear()
            for _o, _s in pending:  # defensive: keep miss accounting exact
                self._misses += 1

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
