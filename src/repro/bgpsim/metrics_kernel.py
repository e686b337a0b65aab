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
flat arrays, without ever touching ``routes``:

* :func:`dag_of` — a :class:`MetricDAG`: the best-path DAG flattened
  into a counting-sorted topological order (path length ascending, node
  index ascending within a length) plus CSR parent pools (each pool
  sorted ascending).  Built once per state and cached on it.
* :func:`path_counts_kernel` — tied-best-path counts as one forward
  pass over the order (cached per state, since reliance and every
  hegemony target reuse it).
* :func:`reliance_kernel` — the §7 mass flow as one backward pass.
* :func:`cross_fractions_kernel` — hegemony's per-receiver crossing
  fractions as one forward pass, reusing the cached counts.
* :func:`length_histogram_kernel` — Fig. 13's weight-per-path-length
  totals read straight off the length array.
* :func:`routed_count_kernel` — ``|reach|`` without building the
  ``reachable_ases`` frozenset.

:class:`~repro.bgpsim.incremental.DeltaRoutingState` is supported
through its override maps, so leak-sweep consumers get the same kernels
over the shared baseline arrays.  Equivalence with the dict reference
implementations is proven by ``tests/test_metric_kernels.py`` (exact
``Fraction`` mode on seeded netgen scenarios); the float paths are
bit-identical as well because both sides process nodes in the same
canonical (length, ASN) order and parents in ascending order.

Each kernel first runs its numpy twin in :mod:`repro.bgpsim.vectorized`.
The array loops here serve the two inputs the float64 sweeps cannot:
DAGs whose tied-best-path counts exceed 2**53 (Python ints stay exact
where float64 casts would round) and ``exact=True`` reliance.
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


class MetricDAG:
    """The best-path DAG of one routing state, flattened for array passes.

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
        # lazy numpy cache of the vectorized kernels (repro.bgpsim
        # .vectorized._dag_np): None = not built, False = not servable
        "_np",
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
        self._np = None

    def idx(self, asn: int) -> Optional[int]:
        """Node index of ``asn`` (None when absent from the graph)."""
        i = bisect_left(self.asns, asn)
        if i < len(self.asns) and self.asns[i] == asn:
            return i
        return None


def dag_of(state: RoutingState) -> MetricDAG:
    """The (cached) :class:`MetricDAG` of an array-backed state."""
    dag = getattr(state, "_metric_dag", None)
    if dag is None:
        if not is_array_state(state):
            raise TypeError(
                "metric kernels require a CompiledRoutingState or "
                f"DeltaRoutingState, not {type(state).__name__}"
            )
        dag = _vec.build_metric_dag_vector(state)
        if dag is None:
            dag = MetricDAG(state)
        state._metric_dag = dag
    return dag


def path_counts_indexed(state: RoutingState) -> list[int]:
    """Tied-best-path counts per *node index* (0 for unrouted nodes).

    Computed during the (cached) DAG build — the forward pass shares the
    parent-pool walk — so reliance and every hegemony target reuse the
    same counts for free.
    """
    counts = getattr(state, "_metric_counts", None)
    if counts is not None:
        return counts
    counts = dag_of(state).counts
    state._metric_counts = counts
    return counts


def path_counts_kernel(state: RoutingState) -> dict[int, int]:
    """ASN-keyed tied-best-path counts (kernel twin of ``path_counts``)."""
    result = _vec.path_counts_vector(state)
    if result is not None:
        return result
    dag = dag_of(state)
    counts = path_counts_indexed(state)
    asns = dag.asns
    return {asns[i]: counts[i] for i in dag.order}


def reliance_mass_kernel(
    state: RoutingState,
    receivers: Optional[Collection[int]] = None,
    exact: bool = False,
) -> tuple[MetricDAG, list]:
    """The §7 mass flow as one backward pass; returns ``(dag, mass)``.

    ``mass`` is indexed by node index (seeds keep the mass routed
    *through* them, which callers exclude).  Fused consumers — e.g. the
    Fig. 6 summaries — aggregate straight off this list instead of
    building an ASN-keyed dict first; :func:`reliance_kernel` is the
    dict-shaped wrapper.
    """
    if not exact:
        result = _vec.reliance_mass_vector(state, receivers=receivers)
        if result is not None:
            return result
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
    if not exact:
        result = _vec.reliance_vector(state, receivers=receivers)
        if result is not None:
            return result
    dag, mass = reliance_mass_kernel(state, receivers=receivers, exact=exact)
    asns, seed_idx = dag.asns, dag.seed_idx
    return {
        asns[i]: (float(mass[i]) if exact else mass[i])
        for i in dag.order
        if mass[i] and i not in seed_idx
    }


def cross_fractions_kernel(
    state: RoutingState, target: int
) -> dict[int, float]:
    """Hegemony's crossing fractions as one forward pass over the DAG."""
    result = _vec.cross_fractions_vector(state, target)
    if result is not None:
        return result
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


def cross_fractions_many_kernel(
    state: RoutingState, targets: Collection[int]
) -> list[dict[int, float]]:
    """:func:`cross_fractions_kernel` for many targets against one
    state, in target order.

    A hegemony sweep evaluates dozens of targets per origin; the
    vectorized path serves the whole set in one ``(m, T)`` forward sweep
    (every dict bit-identical to the per-target kernel), and the
    big-count fallback simply loops — the DAG and tied-best-path counts
    are cached on the state either way.
    """
    targets = list(targets)
    result = _vec.cross_fractions_many_vector(state, targets)
    if result is not None:
        return result
    return [cross_fractions_kernel(state, target) for target in targets]


def length_histogram_kernel(
    state: RoutingState,
    weights: Optional[Mapping[int, float]] = None,
    restrict_to: Optional[Collection[int]] = None,
) -> dict[int, float]:
    """Total weight of routed destinations per exact path length.

    Seeds are excluded (they are sources, not destinations); ``weights``
    maps ASN → weight (default 1 per AS) and ``restrict_to`` limits the
    accounting to a subset.  Read straight off the length array — no
    parent pools, no route objects.
    """
    result = _vec.length_histogram_vector(
        state, weights=weights, restrict_to=restrict_to
    )
    if result is not None:
        return result
    dag = dag_of(state)
    seed_idx = dag.seed_idx
    asns, lengths = dag.asns, dag.lengths
    restrict = (
        restrict_to
        if restrict_to is None or isinstance(restrict_to, (set, frozenset))
        else set(restrict_to)
    )
    histogram: dict[int, float] = {}
    for k, i in enumerate(dag.order):
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
    if isinstance(state, CompiledRoutingState):
        # seeds are always routed, so they are all in _routed
        return len(state._routed) - len(state.seed_asns)
    raise TypeError(
        "metric kernels require a CompiledRoutingState or "
        f"DeltaRoutingState, not {type(state).__name__}"
    )
