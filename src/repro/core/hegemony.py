"""AS hegemony (Fontugne et al., PAM 2018) — a third influence metric.

The paper's related work (§10) contrasts hierarchy-free reachability with
"inbetweenness" metrics like AS hegemony: the average fraction of paths
toward an origin that cross a given AS, with the most- and least-biased
vantage points trimmed before averaging.  Unlike the original (which works
on observed BGP paths), this implementation evaluates hegemony on the
simulated tied-best-path DAG, making it directly comparable with reliance
and hierarchy-free reachability on the same topology.

* **local hegemony** ``H(o, a)`` — how much origin *o* depends on AS *a*:
  the trimmed mean over receivers *t* of the fraction of *t*'s tied-best
  paths to *o* that cross *a*;
* **global hegemony** ``H(a)`` — the mean of local hegemony over a sample
  of origins; the paper's point is that such transit-centric scores and
  hierarchy-free reachability capture different things.

The tied-best-path counts of a state are shared across every hegemony
target: :func:`path_cross_fractions` accepts precomputed ``counts`` (and
the array kernels cache them on the state), so a many-target sweep is
linear — not quadratic — in the number of targets.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Collection, Iterable, Mapping, Sequence
from typing import Optional

from ..bgpsim.cache import RoutingStateCache
from ..bgpsim.engine import propagate, resolve_engine
from ..bgpsim.metrics_kernel import (
    cross_fractions_kernel,
    cross_fractions_many_kernel,
    is_array_state,
    metric_sweep,
)
from ..bgpsim.routes import RoutingState, Seed
from ..topology.asgraph import ASGraph
from .reliance import path_counts

#: default trimming fraction on each side (the original uses 10%)
TRIM = 0.1


def path_cross_fractions(
    state: RoutingState,
    target: int,
    counts: Optional[Mapping[int, int]] = None,
) -> dict[int, float]:
    """For every receiver ``t``: fraction of t's tied-best paths crossing
    ``target`` (1.0 for t == target).

    Array-backed states dispatch to the forward kernel pass (which caches
    the tied-best-path counts on the state); on the dict path pass
    ``counts=path_counts(state)`` when evaluating many targets against
    one state, so the counts are computed once rather than per target.
    """
    if is_array_state(state):
        return cross_fractions_kernel(state, target)
    routes = state.routes
    if target not in routes:
        return {}
    if counts is None:
        counts = path_counts(state)
    fractions: dict[int, float] = {}
    for asn in sorted(routes, key=lambda a: (routes[a].length, a)):
        if asn == target:
            fractions[asn] = 1.0
            continue
        parents = routes[asn].parents
        if not parents:
            fractions[asn] = 0.0  # the origin itself
            continue
        if len(parents) == 1:
            # single parent: the child inherits its parent's fraction
            # (the array kernel takes the same shortcut)
            fractions[asn] = fractions[next(iter(parents))]
            continue
        denom = sum(counts[p] for p in parents)
        fractions[asn] = sum(
            fractions[p] * counts[p] for p in sorted(parents)
        ) / denom
    return fractions


def trimmed_mean(values: Sequence[float], trim: float = TRIM) -> float:
    """Mean with ``trim`` fraction removed from each end (hegemony's
    defence against vantage-point bias)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut : len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def _hegemony_of_state(
    state: RoutingState,
    origin: int,
    target: int,
    trim: float = TRIM,
    counts: Optional[Mapping[int, int]] = None,
    fractions: Optional[Mapping[int, float]] = None,
) -> float:
    if fractions is None:
        fractions = path_cross_fractions(state, target, counts=counts)
    samples = [
        value
        for asn, value in fractions.items()
        if asn not in (origin, target)
    ]
    return trimmed_mean(samples, trim)


def _hegemony_values(
    state: RoutingState,
    origin: int,
    targets: tuple[int, ...],
    trim: float = TRIM,
) -> array:
    """One origin's local hegemony toward every target, as a compact
    float array (NaN where target == origin).  Array-backed states run
    the width-1 metric kernel, which computes crossing fractions only
    for the targets whose trimmed slice reaches past its zeros; states
    past its exact-float range take the big-int many-target loop."""
    if is_array_state(state):
        sweep = metric_sweep(state)
        if not sweep.bad[0]:
            return sweep.hegemony_row(origin, targets, trim)
        values = array("d")
        others = [target for target in targets if target != origin]
        by_target = dict(
            zip(others, cross_fractions_many_kernel(state, others))
        )
        for target in targets:
            if target == origin:
                values.append(math.nan)
            else:
                values.append(
                    _hegemony_of_state(
                        state, origin, target, trim,
                        fractions=by_target[target],
                    )
                )
        return values
    values = array("d")
    counts = path_counts(state)
    for target in targets:
        if target == origin:
            values.append(math.nan)
        else:
            values.append(
                _hegemony_of_state(state, origin, target, trim, counts=counts)
            )
    return values


def local_hegemony(
    graph: ASGraph,
    origin: int,
    target: int,
    cache: Optional[RoutingStateCache] = None,
    trim: float = TRIM,
    engine: Optional[str] = None,
    counts: Optional[Mapping[int, int]] = None,
) -> float:
    """``H(origin, target)`` on the tied-best-path DAG.

    ``counts`` (optional) are ``path_counts`` of the origin's state,
    reused across targets on the dict path; array-backed states run the
    width-1 metric kernel, which caches them internally.
    """
    if cache is None:
        cache = RoutingStateCache(graph, engine=engine)
    state = cache.state_for(origin)
    if target != origin and is_array_state(state):
        return _hegemony_values(state, origin, (target,), trim)[0]
    return _hegemony_of_state(state, origin, target, trim, counts=counts)


def _hegemony_batch_rows(
    graph: ASGraph,
    origins: tuple[int, ...],
    targets: tuple[int, ...],
    trim: float,
) -> list[array]:
    """:func:`_hegemony_values` rows for a whole batch of origins, served
    by one bit-parallel sweep and one call of the batch metric kernel
    (every float bit-identical to the per-origin path); an origin past
    the kernel's exact-float range takes the per-state path."""
    from ..bgpsim.multiorigin import propagate_batch
    from ..bgpsim.vectorized import build_metric_dag_vector

    batch_state = propagate_batch(graph, origins)
    rows = build_metric_dag_vector(batch_state, targets, trim)
    return [
        _hegemony_values(batch_state.view_at(bit), origin, targets, trim)
        if row is None
        else row[2]
        for bit, (origin, row) in enumerate(zip(origins, rows))
    ]


def global_hegemony(
    graph: ASGraph,
    targets: Collection[int],
    origins: Optional[Sequence[int]] = None,
    sample: int = 50,
    rng: Optional[random.Random] = None,
    trim: float = TRIM,
    engine: Optional[str] = None,
) -> dict[int, float]:
    """``H(target)`` for each target, averaged over sampled origins.

    Each origin is propagated once and evaluated against every target in
    one pass (the tied-best-path counts are shared across targets), into
    one compact float array per origin rather than a per-AS dict.  On
    the compiled engine the origins run in
    :data:`~repro.bgpsim.multiorigin.DEFAULT_BATCH`-wide bit-parallel
    sweeps, each scored by one call of the batch metric kernel; the
    reference engine, the oracle, propagates and scores each origin on
    its own.  The floats are identical either way.
    """
    from ..bgpsim.multiorigin import batched

    rng = rng or random.Random(0)
    nodes = sorted(graph.nodes())
    if origins is None:
        origins = rng.sample(nodes, k=min(sample, len(nodes)))
    targets = tuple(targets)
    if resolve_engine(engine) == "reference":
        rows: Iterable[array] = (
            _hegemony_values(
                propagate(graph, Seed(asn=origin), engine="reference"),
                origin,
                targets,
                trim,
            )
            for origin in origins
        )
    else:
        rows = (
            row
            for chunk in batched(list(origins))
            for row in _hegemony_batch_rows(graph, chunk, targets, trim)
        )
    sums = [0.0] * len(targets)
    counts_per_target = [0] * len(targets)
    for row in rows:
        for j, value in enumerate(row):
            if math.isnan(value):
                continue
            sums[j] += value
            counts_per_target[j] += 1
    return {
        target: (sums[j] / counts_per_target[j] if counts_per_target[j] else 0.0)
        for j, target in enumerate(targets)
    }
