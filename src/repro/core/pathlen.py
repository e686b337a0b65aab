"""Best-path length distributions (Appendix E, Fig. 13).

For a cloud origin announcing over the full topology, every routed AS falls
in a path-length bin: 1 hop (direct peering/customer), 2 hops, or 3+ hops.
The bins can be weighted three ways, as in Fig. 13: by networks, by eyeball
(user-hosting) networks only, or by the user population those networks
host.

All weightings are projections of one per-path-length weight histogram,
so a Fig. 13 bar group costs a single propagation; on array-backed states
the histogram is read straight off the compiled length array
(:func:`repro.bgpsim.metrics_kernel.length_histogram_kernel`) without
materializing ``routes``.  Sweeps accept the same ``engine=`` knob as
every other consumer.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from typing import Optional

from ..bgpsim.engine import propagate, resolve_engine
from ..bgpsim.metrics_kernel import is_array_state, length_histogram_kernel
from ..bgpsim.routes import RoutingState, Seed
from ..topology.asgraph import ASGraph

BINS = ("1", "2", "3+")


@dataclass(frozen=True)
class PathLengthMix:
    """Weighted share of destinations at 1 / 2 / 3+ AS hops."""

    one_hop: float
    two_hop: float
    three_plus: float

    def __post_init__(self) -> None:
        total = self.one_hop + self.two_hop + self.three_plus
        if total and abs(total - 1.0) > 1e-9:
            raise ValueError("path length mix must sum to 1 (or be empty)")

    def as_dict(self) -> dict[str, float]:
        return {"1": self.one_hop, "2": self.two_hop, "3+": self.three_plus}


def _bin_of(length: int) -> str:
    if length <= 1:
        return "1"
    if length == 2:
        return "2"
    return "3+"


def path_length_histogram(
    state: RoutingState,
    weights: Mapping[int, float] | None = None,
    restrict_to: Collection[int] | None = None,
) -> dict[int, float]:
    """Total weight of routed destinations per exact path length.

    Seeds are excluded (they are sources, not destinations).  Array-backed
    states read the histogram off the compiled length array; plain states
    walk the routes dict in canonical (ASN) order, so float totals match
    the kernel bit-for-bit.
    """
    if is_array_state(state):
        return length_histogram_kernel(state, weights, restrict_to)
    restrict = set(restrict_to) if restrict_to is not None else None
    histogram: dict[int, float] = {}
    for asn, route in sorted(state.routes.items()):
        if asn in state.seed_asns:
            continue
        if restrict is not None and asn not in restrict:
            continue
        weight = 1.0 if weights is None else float(weights.get(asn, 0))
        if weight:
            histogram[route.length] = histogram.get(route.length, 0.0) + weight
    return histogram


def _bin_totals(histogram: Mapping[int, float]) -> dict[str, float]:
    totals = {b: 0.0 for b in BINS}
    for length in sorted(histogram):
        totals[_bin_of(length)] += histogram[length]
    return totals


def path_length_weights_from_state(
    state: RoutingState,
    weights: Mapping[int, float] | None = None,
    restrict_to: Collection[int] | None = None,
) -> dict[str, float]:
    """Per-bin weight totals of an already-propagated state."""
    return _bin_totals(path_length_histogram(state, weights, restrict_to))


def mean_path_length(
    state: RoutingState,
    weights: Mapping[int, float] | None = None,
    restrict_to: Collection[int] | None = None,
) -> float:
    """Weight-averaged best-path length over routed destinations."""
    histogram = path_length_histogram(state, weights, restrict_to)
    total = sum(histogram.values())
    if not total:
        return 0.0
    return sum(length * w for length, w in sorted(histogram.items())) / total


def path_length_weights(
    graph: ASGraph,
    origin: int,
    weights: Mapping[int, float] | None = None,
    restrict_to: Collection[int] | None = None,
    excluded: Collection[int] = frozenset(),
    engine: Optional[str] = None,
) -> dict[str, float]:
    """Total weight of routed destinations per path-length bin.

    ``weights`` maps AS → weight (default 1 per AS); ``restrict_to``
    limits the accounting to a subset (e.g. eyeball networks);
    ``engine`` selects the propagation engine like every other consumer.
    """
    state = propagate(
        graph, Seed(asn=origin, key="origin"), excluded=excluded, engine=engine
    )
    return path_length_weights_from_state(state, weights, restrict_to)


def normalize_mix(totals: Mapping[str, float]) -> PathLengthMix:
    """Convert bin totals to a :class:`PathLengthMix` of fractions."""
    total = sum(totals.get(b, 0.0) for b in BINS)
    if total == 0:
        return PathLengthMix(0.0, 0.0, 0.0)
    return PathLengthMix(
        one_hop=totals.get("1", 0.0) / total,
        two_hop=totals.get("2", 0.0) / total,
        three_plus=totals.get("3+", 0.0) / total,
    )


def path_length_mix(
    graph: ASGraph,
    origin: int,
    weights: Mapping[int, float] | None = None,
    restrict_to: Collection[int] | None = None,
    engine: Optional[str] = None,
) -> PathLengthMix:
    """Fractional 1 / 2 / 3+ hop mix for ``origin`` (one Fig. 13 bar)."""
    return normalize_mix(
        path_length_weights(graph, origin, weights, restrict_to, engine=engine)
    )


def path_length_distribution(
    graph: ASGraph,
    origins: Iterable[int],
    weights: Mapping[int, float] | None = None,
    restrict_to: Collection[int] | None = None,
    excluded: Collection[int] = frozenset(),
    engine: Optional[str] = None,
) -> list[dict[str, float]]:
    """Per-origin bin totals (:func:`path_length_weights`) for many
    origins, in input order."""
    return [
        path_length_weights(
            graph, origin, weights, restrict_to, excluded=excluded,
            engine=engine,
        )
        for origin in origins
    ]


#: the three weightings of one Fig. 13 bar group, in render order
_FIG13_SERIES = ("ases", "eyeball_ases", "population")


def _fig13_weightings(
    users: Mapping[int, int],
) -> tuple[tuple[Mapping[int, float] | None, frozenset[int] | None], ...]:
    """The three (weights, restrict_to) pairs of one Fig. 13 bar group."""
    eyeballs = frozenset(asn for asn, count in users.items() if count > 0)
    population = {a: float(c) for a, c in users.items()}
    return ((None, None), (None, eyeballs), (population, None))


def _fig13_triples_from_state(
    state: RoutingState,
    weightings: tuple,
) -> tuple[tuple[float, float, float], ...]:
    """All three Fig. 13 weightings of an already-propagated state."""
    triples = []
    for weights, restrict_to in weightings:
        totals = path_length_weights_from_state(state, weights, restrict_to)
        triples.append((totals["1"], totals["2"], totals["3+"]))
    return tuple(triples)


def _bars_from_triples(
    triples: tuple[tuple[float, float, float], ...],
) -> dict[str, PathLengthMix]:
    return {
        name: normalize_mix(dict(zip(BINS, triple)))
        for name, triple in zip(_FIG13_SERIES, triples)
    }


def fig13_bars(
    graph: ASGraph,
    origin: int,
    users: Mapping[int, int],
    engine: Optional[str] = None,
) -> dict[str, PathLengthMix]:
    """The three weightings of Fig. 13 for one cloud provider.

    ``ases``: all networks equally; ``eyeball_ases``: only user-hosting
    networks; ``population``: user-hosting networks weighted by users.
    One propagation serves all three weightings.
    """
    state = propagate(graph, Seed(asn=origin, key="origin"), engine=engine)
    return _bars_from_triples(
        _fig13_triples_from_state(state, _fig13_weightings(users))
    )


def fig13_bars_sweep(
    graph: ASGraph,
    origins: Iterable[int],
    users: Mapping[int, int],
    engine: Optional[str] = None,
) -> list[dict[str, PathLengthMix]]:
    """:func:`fig13_bars` for many origins, in input order.

    On the compiled engine the origins run in
    :data:`~repro.bgpsim.multiorigin.DEFAULT_BATCH`-wide bit-parallel
    sweeps, each view folded into its three bin triples and dropped
    before the next is built; the reference engine, the oracle,
    propagates each origin on its own.  The mixes are identical either
    way.
    """
    from ..bgpsim.multiorigin import batched, propagate_batch

    origin_list = list(origins)
    if resolve_engine(engine) == "reference":
        return [
            fig13_bars(graph, origin, users, engine="reference")
            for origin in origin_list
        ]
    weightings = _fig13_weightings(users)
    bars: list[dict[str, PathLengthMix]] = []
    for chunk in batched(origin_list):
        bars += [
            _bars_from_triples(_fig13_triples_from_state(view, weightings))
            for _, view in propagate_batch(graph, chunk).views()
        ]
    return bars
