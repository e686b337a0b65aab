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

from ..bgpsim.engine import propagate, resolve_engine
from ..bgpsim.metrics_kernel import (
    is_array_state,
    path_counts_kernel,
    reliance_kernel,
    reliance_mass_kernel,
)
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


def reliance_sweep(
    graph: ASGraph,
    origin_excluded: Iterable[tuple[int, Collection[int]]],
    exact: bool = False,
    engine: Optional[str] = None,
) -> list[dict[int, float]]:
    """:func:`reliance` for many (origin, excluded) pairs, in input order."""
    return [
        reliance(graph, origin, excluded, exact=exact, engine=engine)
        for origin, excluded in origin_excluded
    ]


def hierarchy_free_reliance_sweep(
    graph: ASGraph,
    origins: Iterable[int],
    tiers: TierAssignment,
    exact: bool = False,
    engine: Optional[str] = None,
) -> list[dict[int, float]]:
    """:func:`hierarchy_free_reliance` for many origins (Fig. 6's sweep)."""
    return [
        hierarchy_free_reliance(graph, origin, tiers, exact=exact, engine=engine)
        for origin in origins
    ]


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
    only aggregate it (counts, a histogram, the top rows), so a sweep
    keeps this compact record per origin instead: a few dozen numbers
    rather than a per-AS dict.
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


def reliance_summary_sweep(
    graph: ASGraph,
    origin_excluded: Iterable[tuple[int, Collection[int]]],
    bin_width: int = 25,
    top_n: int = 3,
    engine: Optional[str] = None,
) -> list[RelianceSummary]:
    """:class:`RelianceSummary` per (origin, excluded) pair, in input order.

    Like :func:`reliance_sweep` but each origin's reliance is aggregated
    as soon as it is computed, which keeps O(histogram) per origin
    instead of O(ASes) — the shape Fig. 6 / Table 2 actually consume.

    On the compiled engine the sweep runs through the bit-parallel
    multi-origin kernel: pairs sharing an excluded set are grouped (the
    kernel needs one export predicate per sweep) and each group chunked
    to :data:`~repro.bgpsim.multiorigin.DEFAULT_BATCH`, so e.g. an
    all-AS hierarchy-free sweep with a common excluded set costs
    ``ceil(N / batch)`` propagations instead of ``N``.  Each view is
    folded and dropped before the next is built (the views feed the
    same fused kernel aggregation, so every float is bit-identical to
    the per-origin path).  The reference engine, the oracle, propagates
    each pair on its own; results are identical either way.
    """
    from ..bgpsim.multiorigin import batched, propagate_batch

    items = [
        (origin, frozenset(excluded)) for origin, excluded in origin_excluded
    ]
    if resolve_engine(engine) == "reference":
        return [
            summarize_reliance_from_state(
                propagate(
                    graph,
                    Seed(asn=origin, key="origin"),
                    excluded=excluded,
                    engine="reference",
                ),
                bin_width=bin_width,
                top_n=top_n,
            )
            for origin, excluded in items
        ]
    groups: dict[frozenset[int], list[int]] = {}
    for position, (_, excluded) in enumerate(items):
        groups.setdefault(excluded, []).append(position)
    results: list[Optional[RelianceSummary]] = [None] * len(items)
    for excluded, positions in groups.items():
        for chunk in batched(positions):
            # the comprehension's scope holds the batch: it is freed
            # before the next one is propagated
            summaries = [
                summarize_reliance_from_state(
                    view, bin_width=bin_width, top_n=top_n
                )
                for _, view in propagate_batch(
                    graph, [items[p][0] for p in chunk], excluded=excluded
                ).views()
            ]
            for position, summary in zip(chunk, summaries):
                results[position] = summary
    return results


def hierarchy_free_reliance_summaries(
    graph: ASGraph,
    origins: Iterable[int],
    tiers: TierAssignment,
    bin_width: int = 25,
    top_n: int = 3,
    engine: Optional[str] = None,
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
        engine=engine,
    )
