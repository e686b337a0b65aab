"""Array-native metric kernels over compiled routing states.

The paper's headline analyses — reliance mass flow (§7), AS-hegemony
cross-fractions (§10), tied-best-path counting, and the Fig. 13
path-length mixes — are all DAG passes over a propagated routing state.
The historical implementations in :mod:`repro.core` walk the
``state.routes`` dict of :class:`~repro.bgpsim.routes.NodeRoute`
objects; on a :class:`~repro.bgpsim.compiled.CompiledRoutingState` that
first *materializes* the dict (one object per routed AS) and then
re-sorts it by path length once per metric pass, which makes the
analytics layer the dominant cost of a sweep once propagation itself is
the compiled CSR kernel.

This module computes the same metrics directly on the compiled state's
flat arrays, without ever touching ``routes``.  Each kernel is a width-1
call of the batch metric kernel of :mod:`repro.bgpsim.vectorized`: the
state's :func:`metric_sweep` (its parent pools walked once into a
level-ordered edge list, with the tied-best-path counts, cached on the
state) serves

* :func:`path_counts_kernel` — tied-best-path counts;
* :func:`reliance_kernel` / :func:`reliance_mass_kernel` — the §7 mass
  flow as one backward sweep;
* :func:`cross_fractions_kernel` / :func:`cross_fractions_many_kernel` —
  hegemony's per-receiver crossing fractions as one forward sweep;
* :func:`length_histogram_kernel` — Fig. 13's weight-per-path-length
  totals read straight off the length order;
* :func:`routed_count_kernel` — ``|reach|`` without building the
  ``reachable_ases`` frozenset.

:class:`MetricDAG` (built by :func:`dag_of`) keeps the big-int array
loops: they are the oracle of the numpy kernel, the ``exact=True``
(``Fraction``) path, and the path for states whose tied-best-path counts
pass 2**53, where float64 casts would round.

:class:`~repro.bgpsim.incremental.DeltaRoutingState` is supported
through its override maps, so leak-sweep consumers get the same kernels
over the shared baseline arrays.  Equivalence with the dict reference
implementations is proven by ``tests/test_metric_kernels.py`` (exact
``Fraction`` mode on seeded netgen scenarios); the float paths are
bit-identical as well because every side processes nodes in the same
canonical (length, ASN) order and parents in ascending order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Collection, Mapping
from fractions import Fraction
from typing import Optional

from . import vectorized as _vec
from .compiled import _NO_ROUTE, CompiledRoutingState
from .incremental import DeltaRoutingState
from .routes import RoutingState

__all__ = [
    "MetricDAG",
    "cross_fractions_kernel",
    "cross_fractions_many_kernel",
    "dag_of",
    "is_array_state",
    "length_histogram_kernel",
    "metric_sweep",
    "path_counts_indexed",
    "path_counts_kernel",
    "reliance_kernel",
    "reliance_mass_kernel",
    "routed_count_kernel",
]

#: the state types whose arrays the kernels can consume directly
_ARRAY_STATES = (CompiledRoutingState, DeltaRoutingState)


def is_array_state(state: RoutingState) -> bool:
    """True when ``state`` carries the flat arrays the kernels consume."""
    return isinstance(state, _ARRAY_STATES)


def _require_array_state(state: RoutingState) -> None:
    if not is_array_state(state):
        raise TypeError(
            "metric kernels require a CompiledRoutingState or "
            f"DeltaRoutingState, not {type(state).__name__}"
        )


class MetricDAG:
    """The best-path DAG of one routing state, flattened for the big-int
    array loops (the oracle of the numpy kernel, and its fallback).

    ``order`` lists the routed node indices in a topological order of the
    DAG — path length ascending, node index (equivalently ASN) ascending
    within a length — produced by a counting sort over the length array.
    Node ``order[k]``'s parents are ``parents[par_off[k]:par_off[k + 1]]``
    (node indices, ascending), and ``lengths[k]`` is its path length.
    ``routed`` is a per-node membership bytearray and ``seed_idx`` the
    seed node indices.  Plain Python lists are used for the hot tables —
    they index faster than ``array`` objects and the DAG never pickles
    (state ``__getstate__`` drops it).
    """

    __slots__ = (
        "asns",
        "counts",
        "n",
        "order",
        "lengths",
        "par_off",
        "parents",
        "routed",
        "seed_idx",
    )

    def __init__(self, state: RoutingState) -> None:
        if isinstance(state, DeltaRoutingState):
            base = state._baseline
            overrides = state._overrides
        else:
            base = state
            overrides = None
        asns = base._asns
        n = len(asns)
        rc, ln = base._route_class, base._length
        head = base._parent_head
        pool_parent, pool_next = base._pool_parent, base._pool_next

        # counting sort by path length; scanning node indices in ascending
        # order keeps every bucket ASN-sorted for free
        buckets: list[list[int]] = []
        routed = bytearray(n)
        if overrides is None:
            for i in range(n):
                if rc[i] == _NO_ROUTE:
                    continue
                routed[i] = 1
                li = ln[i]
                while len(buckets) <= li:
                    buckets.append([])
                buckets[li].append(i)
        else:
            get_override = overrides.get
            for i in range(n):
                override = get_override(i)
                if override is None:
                    if rc[i] == _NO_ROUTE:
                        continue
                    li = ln[i]
                elif override[0] == _NO_ROUTE:
                    continue
                else:
                    li = override[1]
                routed[i] = 1
                while len(buckets) <= li:
                    buckets.append([])
                buckets[li].append(i)
        order: list[int] = []
        for bucket in buckets:
            order.extend(bucket)

        # CSR parent pools in order sequence, each pool sorted ascending
        # (deterministic float accumulation needs a canonical order).
        # Tied-best-path counts are computed in the same pass — the order
        # is topological, so every parent's count is final before its
        # children read it — and cached here for reliance and hegemony.
        seed_idx = frozenset(
            i
            for i in (base._idx(asn) for asn in state.seed_asns)
            if i is not None
        )
        counts = [0] * n
        lengths: list[int] = []
        par_off: list[int] = [0]
        parents: list[int] = []
        parents_append = parents.append
        parents_extend = parents.extend
        lengths_append = lengths.append
        off_append = par_off.append
        if overrides is None:
            # hot loop: most nodes have zero (seed) or one parent, which
            # need neither a pool list nor a sort
            for i in order:
                lengths_append(ln[i])
                h = head[i]
                if h < 0:
                    counts[i] = 1 if i in seed_idx else 0
                    off_append(len(parents))
                    continue
                nxt = pool_next[h]
                if nxt < 0:
                    p = pool_parent[h]
                    parents_append(p)
                    counts[i] = 1 if i in seed_idx else counts[p]
                    off_append(len(parents))
                    continue
                pool = [pool_parent[h]]
                h = nxt
                while h >= 0:
                    pool.append(pool_parent[h])
                    h = pool_next[h]
                pool.sort()
                if i in seed_idx:
                    counts[i] = 1
                else:
                    total = 0
                    for p in pool:
                        total += counts[p]
                    counts[i] = total
                parents_extend(pool)
                off_append(len(parents))
        else:
            get_override = overrides.get
            for i in order:
                override = get_override(i)
                if override is not None:
                    lengths_append(override[1])
                    pool = sorted(override[2])
                else:
                    lengths_append(ln[i])
                    h = head[i]
                    pool = []
                    while h >= 0:
                        pool.append(pool_parent[h])
                        h = pool_next[h]
                    pool.sort()
                if i in seed_idx:
                    counts[i] = 1
                elif len(pool) == 1:
                    counts[i] = counts[pool[0]]
                else:
                    total = 0
                    for p in pool:
                        total += counts[p]
                    counts[i] = total
                parents_extend(pool)
                off_append(len(parents))

        self.counts = counts
        self.asns = asns
        self.n = n
        self.order = order
        self.lengths = lengths
        self.par_off = par_off
        self.parents = parents
        self.routed = routed
        self.seed_idx = seed_idx

    def idx(self, asn: int) -> Optional[int]:
        """Node index of ``asn`` (None when absent from the graph)."""
        i = bisect_left(self.asns, asn)
        if i < len(self.asns) and self.asns[i] == asn:
            return i
        return None


def dag_of(state: RoutingState) -> MetricDAG:
    """The (cached) big-int :class:`MetricDAG` of an array-backed state."""
    dag = getattr(state, "_metric_dag", None)
    if dag is None:
        _require_array_state(state)
        dag = state._metric_dag = MetricDAG(state)
    return dag


def metric_sweep(state: RoutingState) -> "_vec.MetricSweep":
    """The (cached) width-1 :class:`~repro.bgpsim.vectorized.MetricSweep`
    of an array-backed state.  ``sweep.bad[0]`` marks a state the float64
    kernels cannot serve exactly; the kernels below then fall back to
    the :class:`MetricDAG` loops."""
    sweep = getattr(state, "_metric_sweep", None)
    if sweep is None:
        _require_array_state(state)
        sweep = state._metric_sweep = _vec.state_sweep(state)
    return sweep


def path_counts_indexed(state: RoutingState) -> list[int]:
    """Tied-best-path counts per *node index* (0 for unrouted nodes).

    Computed by the sweep's forward pass (or the big-int DAG build past
    2**53) and cached, so reliance and every hegemony target reuse the
    same counts for free.
    """
    counts = getattr(state, "_metric_counts", None)
    if counts is not None:
        return counts
    sweep = metric_sweep(state)
    counts = dag_of(state).counts if sweep.bad[0] else sweep.cnt.tolist()
    state._metric_counts = counts
    return counts


def path_counts_kernel(state: RoutingState) -> dict[int, int]:
    """ASN-keyed tied-best-path counts (kernel twin of ``path_counts``)."""
    sweep = metric_sweep(state)
    if not sweep.bad[0]:
        return dict(zip(sweep.keys, sweep.cnt[sweep._order].tolist()))
    dag = dag_of(state)
    counts = path_counts_indexed(state)
    asns = dag.asns
    return {asns[i]: counts[i] for i in dag.order}


def reliance_mass_kernel(
    state: RoutingState,
    receivers: Optional[Collection[int]] = None,
    exact: bool = False,
) -> tuple:
    """The §7 mass flow as one backward pass; returns ``(dag, mass)``.

    ``mass`` is indexed by node index (seeds keep the mass routed
    *through* them, which callers exclude).  ``dag`` is the DAG the pass
    ran on — the state's :func:`metric_sweep`, or its :class:`MetricDAG`
    on the big-int and ``exact`` paths; both expose ``asns``, ``n``,
    ``order``, ``lengths``, ``routed``, ``seed_idx`` and ``idx()``.
    Fused consumers — e.g. the Fig. 6 summaries — aggregate straight off
    this list instead of building an ASN-keyed dict first;
    :func:`reliance_kernel` is the dict-shaped wrapper.
    """
    if not exact:
        sweep = metric_sweep(state)
        if not sweep.bad[0]:
            return sweep, sweep.reliance(receivers).tolist()
    dag = dag_of(state)
    counts = path_counts_indexed(state)
    seed_idx = dag.seed_idx
    order, par_off, parents = dag.order, dag.par_off, dag.parents
    one = Fraction(1) if exact else 1.0
    mass: list = [Fraction(0) if exact else 0.0] * dag.n
    if receivers is None:
        for i in order:
            if i not in seed_idx:
                mass[i] = one
    else:
        for asn in receivers:
            i = dag.idx(asn)
            if i is not None and dag.routed[i] and i not in seed_idx:
                mass[i] = one
    for k in range(len(order) - 1, -1, -1):
        i = order[k]
        node_mass = mass[i]
        if not node_mass:
            continue
        begin, end = par_off[k], par_off[k + 1]
        if begin == end:
            continue
        if end - begin == 1:
            # single parent: the whole mass flows through it (share is
            # exactly 1, so skipping the multiply is bit-identical)
            mass[parents[begin]] += node_mass
            continue
        pool = parents[begin:end]
        denom = 0
        for p in pool:
            denom += counts[p]
        if exact:
            for p in pool:
                mass[p] += node_mass * Fraction(counts[p], denom)
        else:
            for p in pool:
                mass[p] += node_mass * (counts[p] / denom)
    return dag, mass


def reliance_kernel(
    state: RoutingState,
    receivers: Optional[Collection[int]] = None,
    exact: bool = False,
) -> dict[int, float]:
    """The §7 reliance mass flow as one backward pass over the DAG.

    Matches ``reliance_from_state``'s dict reference exactly: with
    ``exact=True`` the arithmetic is identical ``Fraction`` algebra; in
    float mode the accumulation order (length descending, ASN descending,
    parents ascending) mirrors the canonical dict-path order, so results
    are bit-identical.
    """
    dag, mass = reliance_mass_kernel(state, receivers=receivers, exact=exact)
    asns, seed_idx = dag.asns, dag.seed_idx
    return {
        asns[i]: (float(mass[i]) if exact else mass[i])
        for i in dag.order
        if mass[i] and i not in seed_idx
    }


def _cross_fractions_loop(state: RoutingState, target: int) -> dict:
    """The big-int loop behind :func:`cross_fractions_kernel`."""
    dag = dag_of(state)
    ti = dag.idx(target)
    if ti is None or not dag.routed[ti]:
        return {}
    counts = path_counts_indexed(state)
    order, par_off, parents = dag.order, dag.par_off, dag.parents
    frac = [0.0] * dag.n
    asns = dag.asns
    out: dict[int, float] = {}
    for k, i in enumerate(order):
        if i == ti:
            value = 1.0
        else:
            begin, end = par_off[k], par_off[k + 1]
            if begin == end:
                value = 0.0  # a seed (the origin itself)
            elif end - begin == 1:
                # single parent: the child inherits its parent's fraction
                # (the dict reference takes the same shortcut)
                value = frac[parents[begin]]
            else:
                denom = 0
                numer = 0.0
                for p in parents[begin:end]:
                    denom += counts[p]
                    numer += frac[p] * counts[p]
                value = numer / denom
        frac[i] = value
        out[asns[i]] = value
    return out


def cross_fractions_kernel(
    state: RoutingState, target: int
) -> dict[int, float]:
    """Hegemony's crossing fractions as one forward pass over the DAG."""
    return cross_fractions_many_kernel(state, (target,))[0]


def cross_fractions_many_kernel(
    state: RoutingState, targets: Collection[int]
) -> list[dict[int, float]]:
    """:func:`cross_fractions_kernel` for many targets against one
    state, in target order.

    A hegemony sweep evaluates dozens of targets per origin; the sweep
    serves the whole set in one forward pass over (target, node) columns
    (every dict bit-identical to the per-target loop), and the big-count
    fallback simply loops — the DAG and tied-best-path counts are cached
    on the state either way.
    """
    targets = list(targets)
    sweep = metric_sweep(state)
    if not sweep.bad[0]:
        return sweep.cross_fractions(targets)
    return [_cross_fractions_loop(state, target) for target in targets]


def length_histogram_kernel(
    state: RoutingState,
    weights: Optional[Mapping[int, float]] = None,
    restrict_to: Optional[Collection[int]] = None,
) -> dict[int, float]:
    """Total weight of routed destinations per exact path length.

    Seeds are excluded (they are sources, not destinations); ``weights``
    maps ASN → weight (default 1 per AS) and ``restrict_to`` limits the
    accounting to a subset.  Read straight off the sweep's length order
    — no parent pools, no route objects.
    """
    sweep = metric_sweep(state)
    seed_idx = sweep.seed_idx
    asns, lengths = sweep.asns, sweep.lengths
    restrict = (
        restrict_to
        if restrict_to is None or isinstance(restrict_to, (set, frozenset))
        else set(restrict_to)
    )
    histogram: dict[int, float] = {}
    for k, i in enumerate(sweep.order):
        if i in seed_idx:
            continue
        asn = asns[i]
        if restrict is not None and asn not in restrict:
            continue
        weight = 1.0 if weights is None else float(weights.get(asn, 0))
        if weight:
            length = lengths[k]
            histogram[length] = histogram.get(length, 0.0) + weight
    return histogram


def routed_count_kernel(state: RoutingState) -> int:
    """``len(state.reachable_ases())`` without building the frozenset."""
    if isinstance(state, DeltaRoutingState):
        base = state._baseline
        base_rc = base._route_class
        count = len(base._routed)
        for i, (rc, _, _) in state._overrides.items():
            was = base_rc[i] != _NO_ROUTE
            now = rc != _NO_ROUTE
            count += int(now) - int(was)
        # both seeds (the legitimate origin and the leaker) always route
        return count - len(state.seed_asns)
    _require_array_state(state)
    # seeds are always routed, so they are all in _routed
    return len(state._routed) - len(state.seed_asns)
