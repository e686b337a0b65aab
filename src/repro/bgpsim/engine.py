"""Gao-Rexford route propagation over an AS graph.

The engine simulates the announcement of a single prefix by one or more
*seeds* (the legitimate origin, and optionally a misconfigured AS leaking
the same prefix) and computes, for every AS, its tied-best route set under
standard policies (§6.1 of the paper):

* valley-free export: customer-learned routes (and a seed's own route) are
  exported to all neighbors; peer- and provider-learned routes are exported
  to customers only;
* preference: customer over peer over provider routes, then shortest
  AS-path, keeping **all** ties (no tie-breaking).

The computation runs in the standard three phases, each of which is correct
because preference classes are strictly ordered:

1. *customer phase* — multi-source level BFS up provider edges, giving every
   AS its best customer-learned route;
2. *peer phase* — one hop across peer edges from customer-phase routes;
3. *provider phase* — Dijkstra down customer edges from every routed AS.

Peer locking (§8.2, with the erratum semantics) is modeled by a set of ASes
that discard routes for the origin's prefix unless received directly from
the origin, which blocks leaked routes from ever traversing them.
"""

from __future__ import annotations

import heapq
import os
from collections import defaultdict
from collections.abc import Collection, Iterable
from typing import Optional

from ..topology.asgraph import ASGraph
from .routes import NodeRoute, RouteClass, RoutingState, Seed

#: engines selectable through ``propagate(engine=...)`` / ``REPRO_ENGINE``:
#: the fast path and its oracle.  ``"compiled"`` runs the numpy sweeps of
#: ``repro.bgpsim.vectorized`` over the CSR graph, and its leak sweeps and
#: event timelines derive each perturbed state as a delta from a shared
#: baseline (``repro.bgpsim.incremental`` / ``repro.bgpsim.events``),
#: falling back to a full recompute where the delta pass cannot serve.
#: ``"reference"`` is the dict-of-objects engine every fast path is
#: checked against, and always recomputes in full.
ENGINES = ("compiled", "reference")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize an ``engine`` knob: explicit value, else the
    ``REPRO_ENGINE`` environment variable, else ``"compiled"``."""
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE", "compiled")
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


#: graph size at which ``stream="auto"`` turns streaming aggregation on.
#: Below it the eager sweeps comfortably fit in memory and keep their
#: states reusable; at the ``full`` (~70k-AS) profile an eager all-origin
#: sweep would hold hundreds of megabytes of views at once.
DEFAULT_STREAM_THRESHOLD = 50_000

_STREAM_TRUE = frozenset({"1", "on", "true", "yes"})
_STREAM_FALSE = frozenset({"0", "off", "false", "no"})


def resolve_stream(
    stream: bool | str | None = None,
    graph_size: Optional[int] = None,
) -> bool:
    """Normalize a ``stream`` knob to a concrete bool.

    Resolution order: an explicit bool wins; ``"on"``/``"off"`` (and the
    usual truthy/falsy spellings) force the choice; ``None`` falls back
    to ``REPRO_STREAM``; ``"auto"`` (the default) streams only when
    ``graph_size`` reaches ``REPRO_STREAM_THRESHOLD`` (default
    :data:`DEFAULT_STREAM_THRESHOLD`), so the paper-scale ``full``
    profile streams out of the box while the seed profiles keep the
    eager, state-reusing path.
    """
    if isinstance(stream, bool):
        return stream
    if stream is None:
        stream = os.environ.get("REPRO_STREAM", "auto")
    knob = str(stream).strip().lower()
    if knob in _STREAM_TRUE:
        return True
    if knob in _STREAM_FALSE:
        return False
    if knob != "auto":
        raise ValueError(
            f"unknown stream knob {stream!r}; expected auto/on/off"
        )
    if graph_size is None:
        return False
    threshold = int(
        os.environ.get("REPRO_STREAM_THRESHOLD", DEFAULT_STREAM_THRESHOLD)
    )
    return graph_size >= threshold


def propagate(
    graph: ASGraph,
    seeds: Seed | Iterable[Seed],
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
    engine: Optional[str] = None,
) -> RoutingState:
    """Propagate a prefix announced by ``seeds`` and return the routing state.

    ``excluded`` ASes neither receive nor forward routes (used to compute
    the paper's subgraph reachabilities).  ``peer_locked`` ASes accept the
    prefix only directly from ``locked_origin`` (defaulting to the first
    seed's AS), per the NTT peer-locking mechanism.

    ``engine`` selects the implementation: ``"compiled"`` (the default)
    runs the integer-indexed array kernel of
    :mod:`repro.bgpsim.compiled` over the graph's cached
    :class:`~repro.bgpsim.compiled.CompiledGraph`; ``"reference"`` runs
    the historical dict-of-objects engine.  Both return equivalent
    states (proven by ``tests/test_compiled_engine.py``); the
    ``REPRO_ENGINE`` environment variable overrides the default.
    """
    if resolve_engine(engine) == "compiled":
        from .compiled import propagate_compiled

        return propagate_compiled(
            graph,
            seeds,
            excluded=excluded,
            peer_locked=peer_locked,
            locked_origin=locked_origin,
        )
    return propagate_reference(
        graph,
        seeds,
        excluded=excluded,
        peer_locked=peer_locked,
        locked_origin=locked_origin,
    )


def propagate_reference(
    graph: ASGraph,
    seeds: Seed | Iterable[Seed],
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
) -> RoutingState:
    """The dict-of-objects propagation engine (differential reference)."""
    if isinstance(seeds, Seed):
        seeds = (seeds,)
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one seed required")
    seen_asns = set()
    for seed in seeds:
        if seed.asn not in graph:
            raise KeyError(f"seed AS{seed.asn} not in graph")
        if seed.asn in excluded:
            raise ValueError(f"seed AS{seed.asn} is excluded")
        if seed.asn in seen_asns:
            raise ValueError(f"duplicate seed AS{seed.asn}")
        seen_asns.add(seed.asn)
    excluded = frozenset(excluded)
    peer_locked = frozenset(peer_locked) - seen_asns
    if locked_origin is None:
        locked_origin = seeds[0].asn

    state = RoutingState(seeds)
    routes = state.routes

    def blocked(sender: int, receiver: int) -> bool:
        if receiver in excluded:
            return True
        return receiver in peer_locked and sender != locked_origin

    # ------------------------------------------------------------------
    # phase 1: customer routes, level-synchronous BFS up provider edges
    # ------------------------------------------------------------------
    for seed in seeds:
        routes[seed.asn] = NodeRoute(
            RouteClass.CUSTOMER, seed.initial_length, set(), {seed.key}
        )

    pending: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for seed in seeds:
        for provider in graph.providers(seed.asn):
            if blocked(seed.asn, provider) or not seed.exports_to(provider):
                continue
            pending[seed.initial_length + 1].append((provider, seed.asn))

    level = min(pending) if pending else 0
    while pending:
        if level not in pending:
            # levels are consumed in increasing order; gaps only occur at
            # seed initial-length boundaries, so the re-scan runs at most
            # once per distinct seed level (not once per iteration)
            level = min(pending)
        events = pending.pop(level)
        newly_settled: list[int] = []
        for receiver, sender in events:
            existing = routes.get(receiver)
            if existing is not None:
                if existing.parents and existing.ties_with(
                    RouteClass.CUSTOMER, level
                ):
                    existing.parents.add(sender)
                continue
            routes[receiver] = NodeRoute(RouteClass.CUSTOMER, level, {sender})
            newly_settled.append(receiver)
        for receiver in newly_settled:
            for provider in graph.providers(receiver):
                if blocked(receiver, provider):
                    continue
                pending[level + 1].append((provider, receiver))
        level += 1

    customer_routed = list(routes)

    # ------------------------------------------------------------------
    # phase 2: peer routes, one hop from every customer-routed AS
    # ------------------------------------------------------------------
    candidates: dict[int, tuple[int, set[int]]] = {}
    seed_by_asn = {s.asn: s for s in seeds}
    for sender in customer_routed:
        length = routes[sender].length + 1
        seed = seed_by_asn.get(sender)
        for peer in graph.peers(sender):
            if peer in routes or blocked(sender, peer):
                continue
            if seed is not None and not seed.exports_to(peer):
                continue
            best = candidates.get(peer)
            if best is None or length < best[0]:
                candidates[peer] = (length, {sender})
            elif length == best[0]:
                best[1].add(sender)
    for receiver, (length, parents) in candidates.items():
        routes[receiver] = NodeRoute(RouteClass.PEER, length, parents)

    # ------------------------------------------------------------------
    # phase 3: provider routes, Dijkstra down customer edges
    # ------------------------------------------------------------------
    heap: list[tuple[int, int, int]] = []
    for sender in routes:
        length = routes[sender].length + 1
        seed = seed_by_asn.get(sender)
        for customer in graph.customers(sender):
            if customer in routes or blocked(sender, customer):
                continue
            if seed is not None and not seed.exports_to(customer):
                continue
            heapq.heappush(heap, (length, customer, sender))
    while heap:
        length, receiver, sender = heapq.heappop(heap)
        existing = routes.get(receiver)
        if existing is not None:
            if existing.ties_with(RouteClass.PROVIDER, length):
                existing.parents.add(sender)
            continue
        routes[receiver] = NodeRoute(RouteClass.PROVIDER, length, {sender})
        for customer in graph.customers(receiver):
            if customer in routes or blocked(receiver, customer):
                continue
            heapq.heappush(heap, (length + 1, customer, receiver))

    _fill_origins(state)
    return state


def _fill_origins(state: RoutingState) -> None:
    """Compute, for each AS, which seeds its tied-best routes lead to.

    Parents always have strictly smaller path length, so the best-route DAG
    is acyclic and origins can be filled by memoized traversal (iterative,
    to stay safe on deep provider chains).
    """
    routes = state.routes
    seed_asns = state.seed_asns
    for asn in routes:
        if routes[asn].origins:
            continue
        stack = [asn]
        while stack:
            node = stack[-1]
            route = routes[node]
            if route.origins:
                stack.pop()
                continue
            missing = [p for p in route.parents if not routes[p].origins]
            if missing:
                stack.extend(missing)
                continue
            for parent in route.parents:
                route.origins |= routes[parent].origins
            if node in seed_asns and not route.origins:
                route.origins = {s.key for s in state.seeds if s.asn == node}
            stack.pop()
