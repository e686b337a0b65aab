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
materializing ``routes``.  Sweeps accept the same ``engine=`` /
``workers=`` knobs as every other consumer.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from typing import Optional

from ..bgpsim.engine import propagate
from ..bgpsim.metrics_kernel import is_array_state, length_histogram_kernel
from ..bgpsim.parallel import graph_map
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


def _pathlen_task(
    graph: ASGraph,
    origin: int,
    weights: Mapping[int, float] | None = None,
    restrict_to: Optional[frozenset[int]] = None,
    excluded: Collection[int] = frozenset(),
    engine: Optional[str] = None,
) -> tuple[float, float, float]:
    totals = path_length_weights(
        graph, origin, weights, restrict_to, excluded=excluded, engine=engine
    )
    return (totals["1"], totals["2"], totals["3+"])


def path_length_distribution(
    graph: ASGraph,
    origins: Iterable[int],
    weights: Mapping[int, float] | None = None,
    restrict_to: Collection[int] | None = None,
    excluded: Collection[int] = frozenset(),
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> list[dict[str, float]]:
    """Per-origin bin totals for many origins, in input order.

    Fans the per-origin propagations out with ``workers`` (each worker
    returns a compact 3-tuple, not a per-AS structure) and threads
    ``engine`` through, matching every other sweep.
    """
    rows = graph_map(
        graph,
        _pathlen_task,
        list(origins),
        workers=workers,
        weights=dict(weights) if weights is not None else None,
        restrict_to=frozenset(restrict_to) if restrict_to is not None else None,
        excluded=frozenset(excluded),
        engine=engine,
    )
    return [dict(zip(BINS, row)) for row in rows]


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


def _fig13_task(
    graph: ASGraph,
    origin: int,
    users: Mapping[int, int] = {},
    engine: Optional[str] = None,
) -> tuple[tuple[float, float, float], ...]:
    """All three Fig. 13 weightings from a single propagation."""
    state = propagate(graph, Seed(asn=origin, key="origin"), engine=engine)
    return _fig13_triples_from_state(state, _fig13_weightings(users))


def _fig13_batch_task(
    graph: ASGraph,
    origins: tuple[int, ...],
    users: Mapping[int, int] = {},
    engine: Optional[str] = None,
) -> list[tuple[tuple[float, float, float], ...]]:
    """:func:`_fig13_task` rows for a batch of origins from one
    bit-parallel sweep (the views feed the same histogram kernel, so
    every float is bit-identical to the per-origin path)."""
    from ..bgpsim.multiorigin import propagate_batch

    del engine  # the batch kernel is the compiled engine
    weightings = _fig13_weightings(users)
    batch_state = propagate_batch(graph, origins)
    return [
        _fig13_triples_from_state(state, weightings)
        for _, state in batch_state.views()
    ]


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
    return _bars_from_triples(_fig13_task(graph, origin, users, engine))


def fig13_bars_sweep(
    graph: ASGraph,
    origins: Iterable[int],
    users: Mapping[int, int],
    workers: int | str | None = None,
    engine: Optional[str] = None,
    batch: Optional[int] = None,
    stream: bool | str | None = None,
    cache=None,
) -> list[dict[str, PathLengthMix]]:
    """:func:`fig13_bars` for many origins; workers return compact bin
    triples (3 weightings × 3 bins per origin).

    ``batch`` groups origins into bit-parallel multi-origin sweeps;
    ``stream`` (``REPRO_STREAM``; auto-on at paper scale) folds each
    origin's triples as its view arrives and drops the view before the
    next one — O(batch) peak memory with bit-identical mixes either
    way.  ``cache`` (optional) supplies warm/precomputed states to the
    streaming path.
    """
    from ..bgpsim.engine import resolve_engine, resolve_stream
    from ..bgpsim.multiorigin import resolve_batch

    origin_list = list(origins)
    try:
        resolved = resolve_engine(engine)
    except ValueError:
        resolved = "reference"  # unknown engine: let the task raise
    width = resolve_batch(batch)
    if (
        resolve_stream(stream, len(graph))
        and resolved == "compiled"
        and origin_list
    ):
        from ..bgpsim.cache import RoutingStateCache

        if cache is None:
            cache = RoutingStateCache(graph, engine=engine, batch=batch)
        weightings = _fig13_weightings(users)
        bars = []
        for _, state in cache.states_for_many(
            origin_list, workers=workers, batch=batch, stream=True
        ):
            bars.append(
                _bars_from_triples(
                    _fig13_triples_from_state(state, weightings)
                )
            )
            del state  # release this view before pulling the next
        return bars
    if width > 1 and resolved == "compiled" and origin_list:
        chunks = [
            tuple(origin_list[i : i + width])
            for i in range(0, len(origin_list), width)
        ]
        row_lists = graph_map(
            graph,
            _fig13_batch_task,
            chunks,
            workers=workers,
            users=dict(users),
            engine=engine,
        )
        return [
            _bars_from_triples(triples)
            for rows_ in row_lists
            for triples in rows_
        ]
    rows = graph_map(
        graph,
        _fig13_task,
        list(origin_list),
        workers=workers,
        users=dict(users),
        engine=engine,
    )
    return [_bars_from_triples(triples) for triples in rows]
