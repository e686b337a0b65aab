"""Reachability reliance (§7).

``rely(o, a)`` measures how much origin *o* depends on AS *a* to be
reached: over every network *t* holding a route to *o*, the fraction of
*t*'s tied-best paths on which *a* appears, summed over all *t* (units of
"ASes").  In a pure hierarchy an origin relies on its provider for the whole
Internet; in a full mesh every reliance is 1.

The computation runs on the tied-best-path DAG produced by the propagation
engine: every routed AS injects one unit of mass at itself (so
``rely(o, t) >= 1`` — *t* is on all of its own paths), and mass flows toward
the origin, splitting across a node's parents in proportion to the number of
tied-best paths through each parent.  The total mass passing through *a* is
exactly ``rely(o, a)``.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..bgpsim.engine import propagate
from ..bgpsim.metrics_kernel import (
    is_array_state,
    path_counts_kernel,
    reliance_kernel,
    reliance_mass_kernel,
)
from ..bgpsim.parallel import graph_map
from ..bgpsim.routes import RoutingState, Seed
from ..topology.asgraph import ASGraph
from ..topology.tiers import TierAssignment


def path_counts(state: RoutingState) -> dict[int, int]:
    """Number of tied-best paths from each routed AS to the seeds.

    Array-backed states dispatch to the forward kernel pass in
    :mod:`repro.bgpsim.metrics_kernel` (no ``routes`` materialization);
    plain states use the dict reference below.
    """
    if is_array_state(state):
        return path_counts_kernel(state)
    return _path_counts_routes(state)


def _path_counts_routes(state: RoutingState) -> dict[int, int]:
    """Dict reference implementation of :func:`path_counts`."""
    counts: dict[int, int] = {}
    routes = state.routes
    for asn in sorted(routes, key=lambda a: (routes[a].length, a)):
        route = routes[asn]
        if asn in state.seed_asns:
            counts[asn] = 1
        else:
            counts[asn] = sum(counts[p] for p in route.parents)
    return counts


def reliance_from_state(
    state: RoutingState,
    receivers: Iterable[int] | None = None,
    exact: bool = False,
) -> dict[int, float]:
    """``rely(o, a)`` for every AS ``a`` appearing on some tied-best path.

    ``receivers`` restricts which networks inject mass (default: every
    routed non-seed AS).  With ``exact=True`` the splits are computed with
    :class:`fractions.Fraction` (slower; useful for tests).

    Array-backed states dispatch to the backward kernel pass in
    :mod:`repro.bgpsim.metrics_kernel`; both paths accumulate in the same
    canonical order (nodes by length then ASN, parents ascending), so the
    float results are bit-identical to each other and across runs.
    """
    if is_array_state(state):
        return reliance_kernel(state, receivers=receivers, exact=exact)
    return _reliance_from_routes(state, receivers=receivers, exact=exact)


def _reliance_from_routes(
    state: RoutingState,
    receivers: Iterable[int] | None = None,
    exact: bool = False,
) -> dict[int, float]:
    """Dict reference implementation of :func:`reliance_from_state`."""
    routes = state.routes
    counts = _path_counts_routes(state)
    zero = Fraction(0) if exact else 0.0
    mass: dict[int, Fraction | float] = {asn: zero for asn in routes}
    if receivers is None:
        injectors = set(routes) - state.seed_asns
    else:
        injectors = {t for t in receivers if t in routes} - state.seed_asns
    for t in injectors:
        mass[t] += Fraction(1) if exact else 1.0
    # Parents always have strictly smaller path length, so processing by
    # decreasing length finalizes each node before it distributes its
    # mass; the ASN tie-break and the sorted parents pin the float
    # accumulation order regardless of dict/set insertion order.
    for asn in sorted(routes, key=lambda a: (routes[a].length, a), reverse=True):
        node_mass = mass[asn]
        if not node_mass:
            continue
        parents = routes[asn].parents
        if not parents:
            continue
        denom = sum(counts[p] for p in parents)
        for parent in sorted(parents):
            share = (
                Fraction(counts[parent], denom)
                if exact
                else counts[parent] / denom
            )
            mass[parent] += node_mass * share
    result = {
        asn: (float(m) if exact else m)
        for asn, m in mass.items()
        if m and asn not in state.seed_asns
    }
    return result


def reliance(
    graph: ASGraph,
    origin: int,
    excluded: Collection[int] = frozenset(),
    exact: bool = False,
    engine: Optional[str] = None,
) -> dict[int, float]:
    """``rely(origin, ·)`` over ``graph`` minus ``excluded``."""
    state = propagate(
        graph, Seed(asn=origin, key="origin"), excluded=excluded, engine=engine
    )
    return reliance_from_state(state, exact=exact)


def _reliance_task(
    graph: ASGraph,
    item: tuple[int, frozenset[int]],
    exact: bool = False,
    engine: Optional[str] = None,
) -> dict[int, float]:
    origin, excluded = item
    return reliance(graph, origin, excluded, exact=exact, engine=engine)


def reliance_sweep(
    graph: ASGraph,
    origin_excluded: Iterable[tuple[int, Collection[int]]],
    exact: bool = False,
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> list[dict[int, float]]:
    """:func:`reliance` for many (origin, excluded) pairs, in input order.

    The propagation per origin is the dominant cost; with ``workers`` the
    pairs fan out across a process pool (the graph ships once per worker).
    ``workers=None`` runs the identical computations serially.
    """
    items = [
        (origin, frozenset(excluded)) for origin, excluded in origin_excluded
    ]
    return list(
        graph_map(
            graph, _reliance_task, items, workers=workers, exact=exact,
            engine=engine,
        )
    )


def hierarchy_free_reliance_sweep(
    graph: ASGraph,
    origins: Iterable[int],
    tiers: TierAssignment,
    exact: bool = False,
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> list[dict[int, float]]:
    """:func:`hierarchy_free_reliance` for many origins (Fig. 6's sweep)."""
    return reliance_sweep(
        graph,
        (
            (origin, (graph.providers(origin) | tiers.hierarchy) - {origin})
            for origin in origins
        ),
        exact=exact,
        workers=workers,
        engine=engine,
    )


def hierarchy_free_reliance(
    graph: ASGraph,
    origin: int,
    tiers: TierAssignment,
    exact: bool = False,
    engine: Optional[str] = None,
) -> dict[int, float]:
    """Reliance under the hierarchy-free constraints (§7.2)."""
    excluded = (graph.providers(origin) | tiers.hierarchy) - {origin}
    return reliance(graph, origin, excluded, exact=exact, engine=engine)


def tier1_free_reliance(
    graph: ASGraph,
    origin: int,
    tiers: TierAssignment,
    exact: bool = False,
    engine: Optional[str] = None,
) -> dict[int, float]:
    """Reliance under Tier-1-free constraints (Appendix B's case study)."""
    excluded = (graph.providers(origin) | tiers.tier1) - {origin}
    return reliance(graph, origin, excluded, exact=exact, engine=engine)


def top_reliance(values: dict[int, float], n: int = 3) -> list[tuple[int, float]]:
    """The ``n`` highest-reliance ASes (Table 2 rows)."""
    # heapq.nsmallest(n, it, key) == sorted(it, key=key)[:n], in O(len * log n)
    return heapq.nsmallest(n, values.items(), key=lambda item: (-item[1], item[0]))


def reliance_histogram(
    values: dict[int, float], bin_width: int = 25
) -> dict[int, int]:
    """Histogram of reliance values in ``bin_width``-wide bins (Fig. 6)."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    histogram: dict[int, int] = {}
    for value in values.values():
        bucket = int(value // bin_width) * bin_width
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return dict(sorted(histogram.items()))


@dataclass(frozen=True)
class RelianceSummary:
    """Everything Fig. 6 / Table 2 keep from one origin's reliance values.

    A full reliance dict holds one float per relied-on AS; the figures
    only aggregate it (counts, a histogram, the top rows).  Sweep workers
    return this compact record instead, so a parallel sweep ships a few
    dozen numbers per origin rather than a per-AS dict.
    """

    networks: int  #: number of ASes with nonzero reliance
    near_one: int  #: of those, how many have reliance <= 1 (flat ideal)
    max_value: float
    histogram: dict[int, int]
    top: tuple[tuple[int, float], ...]

    def fraction_at_one(self) -> float:
        """Share of relied-on networks with reliance ~1 (flat ideal)."""
        return self.near_one / self.networks if self.networks else 0.0


def summarize_reliance(
    values: dict[int, float], bin_width: int = 25, top_n: int = 3
) -> RelianceSummary:
    """Compress a reliance dict into a :class:`RelianceSummary`."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    near_one = 0
    max_value = 0.0
    histogram: dict[int, int] = {}
    for value in values.values():
        if value <= 1.0 + 1e-9:
            near_one += 1
        if value > max_value:
            max_value = value
        bucket = int(value // bin_width) * bin_width
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return RelianceSummary(
        networks=len(values),
        near_one=near_one,
        max_value=max_value,
        histogram=dict(sorted(histogram.items())),
        top=tuple(top_reliance(values, top_n)),
    )


def summarize_reliance_from_state(
    state: RoutingState, bin_width: int = 25, top_n: int = 3
) -> RelianceSummary:
    """:func:`summarize_reliance` of ``reliance_from_state(state)``.

    On array-backed states the summary is aggregated in one fused pass
    over the kernel's mass list — the intermediate ASN-keyed reliance
    dict is never built.  The result is identical to summarizing the
    dict (same float values; the aggregates are order-insensitive and
    the top rows use the same ``(-value, asn)`` ordering).
    """
    if not is_array_state(state):
        return summarize_reliance(
            reliance_from_state(state), bin_width=bin_width, top_n=top_n
        )
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    dag, mass = reliance_mass_kernel(state)
    asns, seed_idx = dag.asns, dag.seed_idx
    networks = 0
    near_one = 0
    max_value = 0.0
    histogram: dict[int, int] = {}
    pairs: list[tuple[int, float]] = []
    for i in dag.order:
        value = mass[i]
        if not value or i in seed_idx:
            continue
        networks += 1
        if value <= 1.0 + 1e-9:
            near_one += 1
        if value > max_value:
            max_value = value
        bucket = int(value // bin_width) * bin_width
        histogram[bucket] = histogram.get(bucket, 0) + 1
        pairs.append((asns[i], value))
    top = tuple(
        heapq.nsmallest(top_n, pairs, key=lambda item: (-item[1], item[0]))
    )
    return RelianceSummary(
        networks=networks,
        near_one=near_one,
        max_value=max_value,
        histogram=dict(sorted(histogram.items())),
        top=top,
    )


def _reliance_summary_task(
    graph: ASGraph,
    item: tuple[int, frozenset[int]],
    bin_width: int = 25,
    top_n: int = 3,
    engine: Optional[str] = None,
) -> RelianceSummary:
    origin, excluded = item
    state = propagate(
        graph, Seed(asn=origin, key="origin"), excluded=excluded, engine=engine
    )
    return summarize_reliance_from_state(state, bin_width=bin_width, top_n=top_n)


def _reliance_summary_batch_task(
    graph: ASGraph,
    item: tuple[tuple[int, ...], frozenset[int]],
    bin_width: int = 25,
    top_n: int = 3,
    engine: Optional[str] = None,
) -> list[RelianceSummary]:
    """Summaries for a batch of origins sharing one excluded set, served
    by one bit-parallel sweep (the views feed the same fused kernel
    aggregation, so every float is bit-identical to the per-origin path).
    """
    from ..bgpsim.multiorigin import propagate_batch

    del engine  # the batch kernel is the compiled engine
    origins, excluded = item
    batch_state = propagate_batch(graph, origins, excluded=excluded)
    return [
        summarize_reliance_from_state(view, bin_width=bin_width, top_n=top_n)
        for _, view in batch_state.views()
    ]


def reliance_summary_sweep(
    graph: ASGraph,
    origin_excluded: Iterable[tuple[int, Collection[int]]],
    bin_width: int = 25,
    top_n: int = 3,
    workers: int | str | None = None,
    engine: Optional[str] = None,
    batch: Optional[int] = None,
    stream: bool | str | None = None,
    cache=None,
) -> list[RelianceSummary]:
    """:class:`RelianceSummary` per (origin, excluded) pair, in input order.

    Like :func:`reliance_sweep` but each worker aggregates before
    returning, which keeps the per-item payload O(histogram) instead of
    O(ASes) — the shape Fig. 6 / Table 2 actually consume.

    ``batch`` routes the sweep through the bit-parallel multi-origin
    kernel: pairs sharing an excluded set are grouped (the kernel needs
    one export predicate per sweep) and each group chunked to the batch
    width, so e.g. an all-AS hierarchy-free sweep with a common excluded
    set costs ``ceil(N / batch)`` propagations instead of ``N``.  It
    defaults through ``REPRO_BATCH`` and is ignored on the reference
    engine; results are identical either way.

    ``stream`` (``REPRO_STREAM``; auto-on at paper scale) folds each
    per-origin view through the summary kernel as it is computed and
    drops it before the next arrives —
    :meth:`~repro.bgpsim.cache.RoutingStateCache.states_for_many`'s
    O(batch)-memory tier — instead of retaining a whole batch window of
    views at once.  Summaries are bit-identical to the eager path
    (asserted in ``tests/test_streaming_sweeps.py`` and in-bench).  A
    ``cache`` with an attached shard store lets precomputed corpora
    serve the no-excluded-set sweeps.
    """
    from ..bgpsim.engine import resolve_engine, resolve_stream
    from ..bgpsim.multiorigin import resolve_batch

    items = [
        (origin, frozenset(excluded)) for origin, excluded in origin_excluded
    ]
    try:
        resolved = resolve_engine(engine)
    except ValueError:
        resolved = "reference"  # unknown engine: let the task raise
    width = resolve_batch(batch)
    if (
        resolve_stream(stream, len(graph))
        and resolved == "compiled"
        and items
    ):
        from ..bgpsim.cache import RoutingStateCache

        if cache is None:
            cache = RoutingStateCache(graph, engine=engine, batch=batch)
        groups: dict[frozenset[int], list[int]] = {}
        for position, (_, excluded) in enumerate(items):
            groups.setdefault(excluded, []).append(position)
        results: list[Optional[RelianceSummary]] = [None] * len(items)
        for excluded, positions in groups.items():
            states = cache.states_for_many(
                (items[p][0] for p in positions),
                workers=workers,
                batch=batch,
                stream=True,
                excluded=excluded,
            )
            for position, (_, state) in zip(positions, states):
                results[position] = summarize_reliance_from_state(
                    state, bin_width=bin_width, top_n=top_n
                )
                # release this view before pulling the next: the fold
                # keeps one live view, not a window of them
                del state
        return results
    if width > 1 and resolved == "compiled" and items:
        groups: dict[frozenset[int], list[int]] = {}
        for position, (_, excluded) in enumerate(items):
            groups.setdefault(excluded, []).append(position)
        tasks: list[tuple[tuple[int, ...], frozenset[int]]] = []
        task_positions: list[list[int]] = []
        for excluded, positions in groups.items():
            for i in range(0, len(positions), width):
                chunk = positions[i : i + width]
                tasks.append(
                    (tuple(items[p][0] for p in chunk), excluded)
                )
                task_positions.append(chunk)
        results: list[Optional[RelianceSummary]] = [None] * len(items)
        summaries_per_task = graph_map(
            graph,
            _reliance_summary_batch_task,
            tasks,
            workers=workers,
            bin_width=bin_width,
            top_n=top_n,
            engine=engine,
        )
        for positions, summaries in zip(task_positions, summaries_per_task):
            for position, summary in zip(positions, summaries):
                results[position] = summary
        return results
    return list(
        graph_map(
            graph,
            _reliance_summary_task,
            items,
            workers=workers,
            bin_width=bin_width,
            top_n=top_n,
            engine=engine,
        )
    )


def hierarchy_free_reliance_summaries(
    graph: ASGraph,
    origins: Iterable[int],
    tiers: TierAssignment,
    bin_width: int = 25,
    top_n: int = 3,
    workers: int | str | None = None,
    engine: Optional[str] = None,
    batch: Optional[int] = None,
    stream: bool | str | None = None,
    cache=None,
) -> list[RelianceSummary]:
    """:func:`reliance_summary_sweep` under hierarchy-free constraints."""
    return reliance_summary_sweep(
        graph,
        (
            (origin, (graph.providers(origin) | tiers.hierarchy) - {origin})
            for origin in origins
        ),
        bin_width=bin_width,
        top_n=top_n,
        workers=workers,
        engine=engine,
        batch=batch,
        stream=stream,
        cache=cache,
    )
