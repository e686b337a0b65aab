"""Numpy kernels for compiled propagation and the metric passes.

The compiled engine (:mod:`repro.bgpsim.compiled`), the bit-parallel
multi-origin sweep (:mod:`repro.bgpsim.multiorigin`) and the metric
kernels (:mod:`repro.bgpsim.metrics_kernel`) all run their passes here,
as level-synchronous numpy sweeps over the CSR arrays:

* :func:`propagate_compiled_vector` — the three Gao-Rexford phases as
  frontier-mask sweeps over the CSR offset/neighbor arrays (phase 1 BFS
  up provider edges, phase 2 one peer hop with per-receiver min
  reduction, phase 3 a bucket-queue Dijkstra down customer edges).  The
  resulting :class:`~repro.bgpsim.compiled.CompiledRoutingState` is
  route-equivalent to :func:`~repro.bgpsim.engine.propagate_reference`,
  with the parent pools in canonical ascending order.
* :func:`propagate_batch_vector` — the multi-origin sweep on ``(n, W)``
  uint64 mask matrices.  The batch keeps its arrival buckets and its
  tied parent edges as numpy arrays (each edge with the mask of the
  origins it is tied for, recorded by the sweep itself), and
  :func:`batch_view_column` / :func:`batch_view_pool` rebuild one
  origin's compiled arrays from them.
* :func:`build_metric_dag_vector` — the metric kernel over a whole batch:
  tied-best-path counts, the §7 reliance mass and AS-hegemony rows for
  up to 64 origins per sub-chunk, level by level over (origin, node)
  cells (:class:`MetricSweep`).  For hegemony a descendant-bitmask sweep
  gives every (origin, target) column its exact nonzero count, and the
  float crossing-fraction recurrence runs only on the columns whose
  trimmed slice reaches past its zeros.  One routing state is a width-1
  sweep (:func:`state_sweep`), which serves the per-state kernels of
  :mod:`repro.bgpsim.metrics_kernel`.

Every float is **bit-identical** to the big-int array loops of
:class:`~repro.bgpsim.metrics_kernel.MetricDAG` and to the dict metrics
of :mod:`repro.core`, because sums add in the same order: ``np.add.at``
and ``np.bincount`` add repeated indices one at a time, in index order
(``np.add.reduce``, ``reduceat``, ``sum`` and ``dot`` switch to pairwise
summation, so float sums never use them).  Reliance visits each level's
edges in reverse, so a parent collects its children in descending node
order; crossing-fraction numerators add a node's parents in ascending
order; a hegemony value is builtin ``sum`` over its sorted kept slice.
An origin whose tied-best-path counts pass 2**53 (where int→float64
casts stop being exact) is flagged and served by the big-int loops,
which keep exact Python ints; the rest of its batch stays batched.

numpy is a required dependency, imported on the first kernel call rather
than at ``import repro``, so commands that never run a kernel (``repro
serve`` answering from precomputed shards, ``--help``) do not pay for it.

Equivalence with the reference engine and the dict metrics is proven by
the differential harnesses in ``tests/test_vectorized_engine.py``,
``tests/test_compiled_engine.py``, ``tests/test_metric_kernels.py`` and
``tests/test_batch_metric_kernel.py``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Collection
from typing import Optional

from .compiled import (
    _NO_ROUTE,
    _signed_typecode,
    _unsigned_typecode,
    CompiledGraph,
    CompiledRoutingState,
)
from .routes import Seed

__all__ = [
    "MetricSweep",
    "propagate_compiled_vector",
    "propagate_batch_vector",
    "batch_view_column",
    "batch_view_pool",
    "build_metric_dag_vector",
    "state_sweep",
]

#: largest integer exactly representable as a float64; tied-best-path
#: counts beyond this make the int→float casts inexact, so the metric
#: kernel hands those origins to the big-int array loops
_EXACT_FLOAT_MAX = 1 << 53

_np = None


def _numpy():
    """The numpy module, imported on first use (see the module notes)."""
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


def resolve_vector(vector=None) -> bool:
    """Always ``True``: the numpy kernels are the only fast path.  Kept
    for run records that stamp every resolved performance setting."""
    del vector
    return True


# ---------------------------------------------------------------------------
# buffer <-> numpy bridges
# ---------------------------------------------------------------------------

#: array/memoryview typecode -> numpy dtype string
_DTYPES = {
    "B": "u1",
    "b": "i1",
    "H": "u2",
    "h": "i2",
    "I": "u4",
    "i": "i4",
    "L": "u8",
    "l": "i8",
    "Q": "u8",
    "q": "i8",
    "d": "f8",
}


def _as_np(buf):
    """Zero-copy numpy view of an ``array``/``bytearray``/``memoryview``."""
    np = _numpy()
    if isinstance(buf, array):
        code = buf.typecode
    elif isinstance(buf, memoryview):
        code = buf.format
    elif isinstance(buf, (bytes, bytearray)):
        code = "B"
    else:
        return np.asarray(buf)
    return np.frombuffer(buf, dtype=_DTYPES[code])


def _to_array(code: str, values) -> array:
    """Copy a numpy vector into an ``array(code)`` (the compact storage
    the compiled states pickle)."""
    out = array(code)
    out.frombytes(values.astype(_DTYPES[code], copy=False).tobytes())
    return out


def _graph_arrays(cg: CompiledGraph) -> dict:
    """int64 CSR views of a compiled graph, cached on the graph object
    (dropped by ``CompiledGraph.__getstate__`` so pickles stay small)."""
    cache = cg.__dict__.get("_np_csr")
    if cache is None:
        np = _numpy()
        cache = {
            "poff": _as_np(cg.provider_off).astype(np.int64),
            "pnbr": _as_np(cg.provider_nbr).astype(np.int64),
            "coff": _as_np(cg.customer_off).astype(np.int64),
            "cnbr": _as_np(cg.customer_nbr).astype(np.int64),
            "qoff": _as_np(cg.peer_off).astype(np.int64),
            "qnbr": _as_np(cg.peer_nbr).astype(np.int64),
        }
        cg.__dict__["_np_csr"] = cache
    return cache


def _seg_arange(starts, counts):
    """Concatenated ``arange(start, start + count)`` per segment — the
    CSR gather index for a set of adjacency rows."""
    np = _numpy()
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    out = np.repeat(starts - cum + counts, counts)
    out += np.arange(total, dtype=np.int64)
    return out


# ---------------------------------------------------------------------------
# single-announcement propagation (behind propagate_compiled)
# ---------------------------------------------------------------------------


def propagate_compiled_vector(
    cg: CompiledGraph,
    seeds: tuple[Seed, ...],
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
) -> CompiledRoutingState:
    """The three Gao-Rexford phases behind
    :func:`~repro.bgpsim.compiled.propagate_compiled`.

    ``cg`` must already be compiled and ``seeds`` validated (the caller
    is ``propagate_compiled`` itself, after ``_check_seeds``).  Produces
    a route-equivalent :class:`CompiledRoutingState` with parent pools in
    canonical ascending order and ``routed`` sorted ascending.
    """
    np = _numpy()
    g = _graph_arrays(cg)
    index = cg.index
    n = cg.n
    if locked_origin is None:
        locked_origin = seeds[0].asn
    locked_idx = index.get(locked_origin, -2)

    ex = np.zeros(n, dtype=bool)
    for asn in excluded:
        i = index.get(asn)
        if i is not None:
            ex[i] = True
    seed_asns = {s.asn for s in seeds}
    lk = np.zeros(n, dtype=bool)
    for asn in peer_locked:
        if asn in seed_asns:
            continue
        i = index.get(asn)
        if i is not None:
            lk[i] = True
    # the common sweep case has no exclusions/locks at all; skipping the
    # mask gathers entirely is a sizeable win at small graph scales
    masked = bool(ex.any()) or bool(lk.any())

    # per-seed export restrictions, as sorted neighbor-index arrays
    seed_export: dict[int, "object"] = {}
    for seed in seeds:
        if seed.export_to is not None:
            allowed = sorted(
                index[a] for a in seed.export_to if a in index
            )
            seed_export[index[seed.asn]] = np.asarray(allowed, np.int64)

    rc = np.full(n, _NO_ROUTE, dtype=np.uint8)
    ln = np.zeros(n, dtype=np.int64)
    children_parts: list = []
    parents_parts: list = []

    poff, pnbr = g["poff"], g["pnbr"]
    coff, cnbr = g["coff"], g["cnbr"]
    qoff, qnbr = g["qoff"], g["qnbr"]

    def _apply_export(keep, send, recv):
        """Drop edges a seed sender's export_to filter blocks (in place)."""
        for si, allowed in seed_export.items():
            m = keep & (send == si)
            if m.any():
                idx = np.nonzero(m)[0]
                ok = np.isin(recv[idx], allowed)
                keep[idx[~ok]] = False
        return keep

    def _dedup(nodes):
        """Unique node indices, ascending (flag-scatter: cheaper than a
        sort-based ``np.unique`` at these sizes)."""
        seen = np.zeros(n, dtype=bool)
        seen[nodes] = True
        return np.nonzero(seen)[0]

    # -- phase 1: customer routes, level-synchronous BFS up providers ----
    pending: dict[int, list] = {}
    for seed in seeds:
        s = index[seed.asn]
        rc[s] = 0
        ln[s] = seed.initial_length
        exp = seed_export.get(s)
        row = pnbr[poff[s] : poff[s + 1]]
        if masked:
            keep = ~ex[row]
            if s != locked_idx:
                keep &= ~lk[row]
            if exp is not None:
                keep &= np.isin(row, exp)
            recvs = row[keep]
        elif exp is not None:
            recvs = row[np.isin(row, exp)]
        else:
            recvs = row
        if recvs.size:
            pending.setdefault(seed.initial_length + 1, []).append(
                (recvs, np.full(recvs.size, s, dtype=np.int64))
            )

    level = min(pending) if pending else 0
    while pending:
        if level not in pending:
            level = min(pending)
        parts = pending.pop(level)
        if len(parts) == 1:
            recv, send = parts[0]
        else:
            recv = np.concatenate([p[0] for p in parts])
            send = np.concatenate([p[1] for p in parts])
        # every event whose receiver is still unrouted at level start is
        # a tied parent edge (senders are exactly one level shorter);
        # events into already-routed nodes can only target earlier levels
        # or seeds and are dropped, exactly as in the reference engine
        new = rc[recv] == _NO_ROUTE
        if new.any():
            nr, ns = recv[new], send[new]
            children_parts.append(nr)
            parents_parts.append(ns)
            newly = _dedup(nr)
            rc[newly] = 0
            ln[newly] = level
            starts = poff[newly]
            counts = poff[newly + 1] - starts
            if int(counts.sum()):
                nrecv = pnbr[_seg_arange(starts, counts)]
                nsend = np.repeat(newly, counts)
                if masked:
                    keep = ~ex[nrecv] & (~lk[nrecv] | (nsend == locked_idx))
                    if keep.any():
                        pending.setdefault(level + 1, []).append(
                            (nrecv[keep], nsend[keep])
                        )
                else:
                    pending.setdefault(level + 1, []).append((nrecv, nsend))
        level += 1

    # -- phase 2: peer routes, one hop from customer-routed ASes ---------
    cust_nodes = np.nonzero(rc == 0)[0].astype(np.int64)
    starts = qoff[cust_nodes]
    counts = qoff[cust_nodes + 1] - starts
    if int(counts.sum()):
        recv = qnbr[_seg_arange(starts, counts)]
        send = np.repeat(cust_nodes, counts)
        keep = rc[recv] == _NO_ROUTE
        if masked:
            keep &= ~ex[recv] & (~lk[recv] | (send == locked_idx))
        if seed_export:
            _apply_export(keep, send, recv)
        recv, send = recv[keep], send[keep]
        if recv.size:
            hop = ln[send] + 1
            minhop = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(minhop, recv, hop)
            tie = hop == minhop[recv]
            tr = recv[tie]
            # ties arrive in sender order, which the canonical pool
            # lexsort at assembly re-orders anyway
            children_parts.append(tr)
            parents_parts.append(send[tie])
            rc[tr] = 1
            ln[tr] = minhop[tr]

    # -- phase 3: provider routes, bucket-queue Dijkstra down customers --
    routed_nodes = np.nonzero(rc != _NO_ROUTE)[0].astype(np.int64)
    pending = {}
    starts = coff[routed_nodes]
    counts = coff[routed_nodes + 1] - starts
    if int(counts.sum()):
        recv = cnbr[_seg_arange(starts, counts)]
        send = np.repeat(routed_nodes, counts)
        keep = rc[recv] == _NO_ROUTE
        if masked:
            keep &= ~ex[recv] & (~lk[recv] | (send == locked_idx))
        if seed_export:
            _apply_export(keep, send, recv)
        recv, send = recv[keep], send[keep]
        if recv.size:
            hop = ln[send] + 1
            for h in np.unique(hop):
                m = hop == h
                pending[int(h)] = [(recv[m], send[m])]
    while pending:
        depth = min(pending)
        parts = pending.pop(depth)
        if len(parts) == 1:
            recv, send = parts[0]
        else:
            recv = np.concatenate([p[0] for p in parts])
            send = np.concatenate([p[1] for p in parts])
        new = rc[recv] == _NO_ROUTE
        if new.any():
            nr, ns = recv[new], send[new]
            children_parts.append(nr)
            parents_parts.append(ns)
            newly = _dedup(nr)
            rc[newly] = 2
            ln[newly] = depth
            starts = coff[newly]
            counts = coff[newly + 1] - starts
            if int(counts.sum()):
                nrecv = cnbr[_seg_arange(starts, counts)]
                nsend = np.repeat(newly, counts)
                keep = rc[nrecv] == _NO_ROUTE
                if masked:
                    keep &= ~ex[nrecv] & (~lk[nrecv] | (nsend == locked_idx))
                if keep.any():
                    pending.setdefault(depth + 1, []).append(
                        (nrecv[keep], nsend[keep])
                    )

    # -- assemble the linked parent-edge pool (canonical order) ----------
    if children_parts:
        children = np.concatenate(children_parts)
        parents = np.concatenate(parents_parts)
        o = np.lexsort((parents, children))
        children, parents = children[o], parents[o]
    else:
        children = parents = np.empty(0, dtype=np.int64)
    pool_size = children.size

    # -- origins: per-level OR of the parents' masks ---------------------
    origin_mask: Optional[list[int]] = None
    if len(seeds) > 1:
        if len(seeds) <= 64 and pool_size:
            om = np.zeros(n, dtype=np.uint64)
            for b, seed in enumerate(seeds):
                om[index[seed.asn]] = np.uint64(1 << b)
            cl = ln[children]
            o = np.argsort(cl, kind="stable")
            ch_s, pa_s, cl_s = children[o], parents[o], cl[o]
            bounds = np.nonzero(np.diff(cl_s))[0] + 1
            lo = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
            hi = np.concatenate((bounds, [cl_s.size]))
            for a, b2 in zip(lo, hi):
                # parents are one hop shorter, so their masks are final
                # when their children's level is processed
                np.bitwise_or.at(
                    om, ch_s[a:b2], om[pa_s[a:b2]]
                )
            origin_mask = [int(v) for v in om.tolist()]
        else:
            origin_mask = [0] * n
            for b, seed in enumerate(seeds):
                origin_mask[index[seed.asn]] = 1 << b
            cl = ln[children]
            o = np.argsort(cl, kind="stable")
            ch_l = children[o].tolist()
            pa_l = parents[o].tolist()
            for c, p in zip(ch_l, pa_l):
                origin_mask[c] |= origin_mask[p]

    routed = np.flatnonzero(rc != _NO_ROUTE)
    max_len = int(ln[routed].max()) if routed.size else 0
    return CompiledRoutingState(
        cg.asns,
        seeds,
        bytearray(rc.tobytes()),
        _to_array(_unsigned_typecode(max_len), ln),
        *_linked_pool(n, children, parents, routed),
        origin_mask,
    )


def _linked_pool(n: int, children, parents, routed) -> tuple:
    """``(parent_head, pool_parent, pool_next, routed)`` at the compact
    typecodes a :class:`CompiledRoutingState` stores, from parent edges
    sorted by (child, parent).

    Pool entries keep that order; ``parent_head[i]`` points at node
    *i*'s last entry and ``pool_next`` walks back through the earlier
    ones, ending at -1.
    """
    np = _numpy()
    pool_size = children.size
    head = np.full(n, -1, dtype=np.int64)
    pool_next = np.empty(0, dtype=np.int64)
    if pool_size:
        first = np.ones(pool_size, dtype=bool)
        first[1:] = children[1:] != children[:-1]
        pool_next = np.arange(pool_size, dtype=np.int64) - 1
        pool_next[first] = -1
        last = np.ones(pool_size, dtype=bool)
        last[:-1] = first[1:]
        head[children[last]] = np.flatnonzero(last)
    node_code = _unsigned_typecode(max(n - 1, 0))
    pool_code = _signed_typecode(pool_size)
    return (
        _to_array(pool_code, head),
        _to_array(node_code, parents),
        _to_array(pool_code, pool_next),
        _to_array(node_code, routed),
    )


# ---------------------------------------------------------------------------
# multi-origin bit-parallel propagation (behind propagate_batch)
# ---------------------------------------------------------------------------


def propagate_batch_vector(cg: CompiledGraph, origins: tuple[int, ...], ex):
    """The sweep behind :func:`~repro.bgpsim.multiorigin.propagate_batch`.

    ``ex`` is the per-node excluded bytearray the caller already built.
    Origin masks live in ``(n, W)`` uint64 matrices (bit *b* of a row is
    ``origins[b]``), OR-aggregated per level with ``np.bitwise_or.at``.
    Every ``(class, level)`` arrival bucket is kept: the returned
    :class:`~repro.bgpsim.multiorigin.BatchRoutingState` stores them
    concatenated as flat arrays (node, class, level, and a ``(W, E)``
    word-major mask matrix), from which each view reads its own bit.

    The sweep also records every tied parent edge.  An expanded edge
    carries its sender's mask; ANDed with the bits first arriving at its
    receiver at that level, it is exactly the set of origins for which
    the sender is a tied parent of the receiver.  Those ``(child,
    parent, level, mask)`` rows are kept sorted by (child, parent, level).
    """
    from .multiorigin import BatchRoutingState

    np = _numpy()
    g = _graph_arrays(cg)
    index = cg.index
    n = cg.n
    width = len(origins)
    words = (width + 63) >> 6
    exm = _as_np(ex) != 0

    cust = np.zeros((n, words), dtype=np.uint64)
    peer = np.zeros((n, words), dtype=np.uint64)
    prov = np.zeros((n, words), dtype=np.uint64)
    buckets: dict[tuple[int, int], tuple] = {}
    ties: list[tuple] = []

    poff, pnbr = g["poff"], g["pnbr"]
    coff, cnbr = g["coff"], g["cnbr"]
    qoff, qnbr = g["qoff"], g["qnbr"]

    def _aggregate(recv, rmask):
        """OR the per-edge masks into one row per distinct receiver."""
        uq, inv = np.unique(recv, return_inverse=True)
        acc = np.zeros((uq.size, words), dtype=np.uint64)
        np.bitwise_or.at(acc, inv, rmask)
        return uq, acc

    def _expand(off, nbr, nodes, masks):
        """Push ``masks`` across one CSR relation, dropping excluded
        receivers; returns per-edge (recv, send, mask-rows)."""
        starts = off[nodes]
        counts = off[nodes + 1] - starts
        if not int(counts.sum()):
            return None
        recv = nbr[_seg_arange(starts, counts)]
        keep = ~exm[recv]
        if not keep.any():
            return None
        send = np.repeat(nodes, counts)[keep]
        return recv[keep], send, np.repeat(masks, counts, axis=0)[keep]

    def _any(masks):
        """``masks.any(axis=1)``, as an OR across the W words (several
        times faster than the reduction)."""
        acc = masks[:, 0].copy()
        for w in range(1, words):
            acc |= masks[:, w]
        return acc != 0

    def _tie(level, recv, send, tie):
        """Record the edges whose ``tie`` bits arrive first at ``recv``."""
        alive = _any(tie)
        if alive.any():
            ties.append((level, recv[alive], send[alive], tie[alive]))

    # -- phase 1: BFS up provider edges, all origin bits at once ---------
    bit_ids = np.arange(width, dtype=np.uint64)
    nodes, slot = np.unique(
        np.fromiter((index[o] for o in origins), np.int64, width),
        return_inverse=True,
    )
    masks = np.zeros((nodes.size, words), dtype=np.uint64)
    np.bitwise_or.at(
        masks,
        (slot, (bit_ids >> np.uint64(6)).astype(np.int64)),
        np.uint64(1) << (bit_ids & np.uint64(63)),
    )
    level = 0
    cust_levels: list[tuple[int, "object", "object"]] = []
    while nodes.size:
        newm = masks & ~cust[nodes]
        any_new = _any(newm)
        nodes, newm = nodes[any_new], newm[any_new]
        if not nodes.size:
            break
        cust[nodes] |= newm
        buckets[(0, level)] = (nodes, newm)
        cust_levels.append((level, nodes, newm))
        edges = _expand(poff, pnbr, nodes, newm)
        if edges is None:
            nodes = np.empty(0, dtype=np.int64)
        else:
            recv, send, rmask = edges
            _tie(level + 1, recv, send, rmask & ~cust[recv])
            uq, acc = _aggregate(recv, rmask)
            rem = acc & ~cust[uq]
            alive = _any(rem)
            nodes, masks = uq[alive], rem[alive]
        level += 1

    # -- phase 2: one peer hop, customer levels ascending ----------------
    peer_levels: list[tuple[int, "object", "object"]] = []
    for src_level, lnodes, lmasks in cust_levels:
        edges = _expand(qoff, qnbr, lnodes, lmasks)
        if edges is None:
            continue
        recv, send, rmask = edges
        bits = rmask & ~cust[recv] & ~peer[recv]
        _tie(src_level + 1, recv, send, bits)
        alive = _any(bits)
        recv, bits = recv[alive], bits[alive]
        if not recv.size:
            continue
        uq, acc = _aggregate(recv, bits)
        peer[uq] |= acc
        buckets[(1, src_level + 1)] = (uq, acc)
        peer_levels.append((src_level + 1, uq, acc))

    # -- phase 3: bucket-queue Dijkstra down customer edges --------------
    pending: dict[int, list] = {}

    def _seed_down(src_level, lnodes, lmasks):
        edges = _expand(coff, cnbr, lnodes, lmasks)
        if edges is not None:
            pending.setdefault(src_level + 1, []).append(edges)

    for src_level, lnodes, lmasks in cust_levels:
        _seed_down(src_level, lnodes, lmasks)
    for src_level, lnodes, lmasks in peer_levels:
        _seed_down(src_level, lnodes, lmasks)
    while pending:
        depth = min(pending)
        parts = pending.pop(depth)
        recv = np.concatenate([p[0] for p in parts])
        send = np.concatenate([p[1] for p in parts])
        rmask = np.concatenate([p[2] for p in parts])
        routed = cust[recv] | peer[recv] | prov[recv]
        _tie(depth, recv, send, rmask & ~routed)
        uq, acc = _aggregate(recv, rmask)
        new = acc & ~cust[uq] & ~peer[uq] & ~prov[uq]
        alive = _any(new)
        uq, new = uq[alive], new[alive]
        if uq.size:
            prov[uq] |= new
            buckets[(2, depth)] = (uq, new)
            _seed_down(depth, uq, new)

    # every (node, bit) arrives in exactly one bucket: concatenated, the
    # buckets are the whole routing state of the batch
    keys = list(buckets)
    sizes = [buckets[key][0].size for key in keys]
    return BatchRoutingState(
        cg,
        origins,
        np.concatenate([buckets[key][0] for key in keys]),
        np.repeat(np.array([c for c, _ in keys], dtype=np.uint8), sizes),
        np.repeat(np.array([lv for _, lv in keys], dtype=np.int64), sizes),
        np.ascontiguousarray(
            np.concatenate([buckets[key][1] for key in keys]).T
        ),
        *_tie_rows(ties, words, n),
    )


def _tie_rows(ties: list, words: int, n: int) -> tuple:
    """``(child, parent, level, (W, R) masks)`` of the recorded tie edges,
    sorted by (child, parent, level).  A sender that holds routes of
    several classes at one level is expanded once per class: its rows
    for the same (level, child, parent) carry disjoint bits and are
    merged into one."""
    np = _numpy()
    if not ties:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty.astype(np.uint16), np.zeros(
            (words, 0), dtype=np.uint64
        )
    span = max(t[0] for t in ties) + 1
    key = np.concatenate(
        [(t[1] * n + t[2]) * span + t[0] for t in ties]
    )
    o = np.argsort(key)
    key, masks = key[o], np.concatenate([t[3] for t in ties])[o]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    if not first.all():
        starts = np.flatnonzero(first)
        masks = np.bitwise_or.reduceat(masks, starts, axis=0)
        key = key[starts]
    edge, level = np.divmod(key, span)
    child, parent = np.divmod(edge, n)
    return child, parent, level.astype(np.uint16), np.ascontiguousarray(
        masks.T
    )


def batch_view_column(batch, bit: int, n: int) -> tuple[bytearray, array]:
    """One batch bit's route-class and path-length columns, at the
    compact storage a :class:`CompiledRoutingState` uses: nodes where
    the bit arrived take their bucket's class and level, the rest stay
    unrouted."""
    np = _numpy()
    hit = np.flatnonzero(
        batch._masks[bit >> 6] & np.uint64(1 << (bit & 63)) != 0
    )
    nodes = batch._nodes[hit]
    levels = batch._levels[hit]
    rc = np.full(n, _NO_ROUTE, dtype=np.uint8)
    rc[nodes] = batch._classes[hit]
    ln = np.zeros(n, dtype=np.int64)
    ln[nodes] = levels
    max_len = int(levels.max()) if levels.size else 0
    return bytearray(rc.tobytes()), _to_array(_unsigned_typecode(max_len), ln)


def batch_view_pool(batch, bit: int, rc) -> tuple:
    """``(parent_head, pool_parent, pool_next, routed)`` of one batch
    view: the tie rows carrying its bit, already in the (child, parent)
    order of :func:`propagate_compiled_vector`'s pools.  Seeds keep no
    parents."""
    np = _numpy()
    hit = np.flatnonzero(
        batch._tie_masks[bit >> 6] & np.uint64(1 << (bit & 63)) != 0
    )
    return _linked_pool(
        len(rc),
        batch._tie_child[hit],
        batch._tie_parent[hit],
        np.flatnonzero(_as_np(rc) != _NO_ROUTE),
    )


# ---------------------------------------------------------------------------
# metric kernel: counts, reliance and hegemony for many origins at once
# ---------------------------------------------------------------------------

#: (origin, node) cells one sub-chunk of the metric kernel may hold: the
#: sub-chunk is 64 origins wide at ``mid`` scale (1,990 ASes) and 7 at
#: ``full`` (70k ASes); crossing-fraction columns are chunked the same way
_CELL_BUDGET = 1 << 19

#: tied-best-path counts past 2**53 are clamped here (their origin goes
#: to the big-int loops), so level sums over pools of under 1024 parents
#: cannot wrap int64
_COUNT_CAP = _EXACT_FLOAT_MAX + 1


_BYTE_BITS = None


def _byte_bits() -> tuple:
    """Tables of the 256 byte values: ``(count, first, where, bits)`` —
    set-bit count, offset of the value's run in ``where``, the set-bit
    positions of every value in turn, and the ``(256, 8)`` bit matrix."""
    global _BYTE_BITS
    if _BYTE_BITS is None:
        np = _numpy()
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        count = bits.sum(axis=1)
        first = np.concatenate(([0], np.cumsum(count)[:-1]))
        _BYTE_BITS = count, first, np.nonzero(bits)[1], bits
    return _BYTE_BITS


def _set_bits(words):
    """``(row, bit)`` of every set bit of the uint64 ``words``, row-major
    with bits ascending.  Reads bytes, not bits: each nonzero byte
    expands through a table of the bit positions of all 256 values."""
    np = _numpy()
    count, first, where, _ = _byte_bits()
    octets = words.astype("<u8", copy=False).view(np.uint8)
    # (numpy's nonzero scan is several times faster on booleans)
    at = np.flatnonzero(octets != 0)
    value = octets[at]
    k = count[value]
    pos = where[_seg_arange(first[value], k)]
    at = np.repeat(at, k)
    return at >> 3, (at & 7) * 8 + pos


class MetricSweep:
    """The best-path DAGs of ``width`` origins (slots) over one graph of
    ``n`` nodes, as one edge list in (slot, node) cell space: cell
    ``k * n + i`` is node *i* in slot *k*'s DAG.

    ``lvl`` is every cell's path length (-1: unrouted) and ``seeds`` the
    seed cells.  Edge *e* of slot ``slot[e]`` joins child cell ``cp[e]``
    to its tied parent ``pp[e]``; the edges run in (child level, slot,
    child, parent) order, level group *g* spanning
    ``bounds[g]:bounds[g + 1]`` with its children at path length
    ``glevel[g]``.

    Construction runs the forward count pass: ``cnt`` holds the
    tied-best-path counts (seeds 1), ``denf`` each cell's parent-count
    sum (the float kernels' denominator), ``single`` the cells with one
    tied parent, and ``bad`` the slots the float64 kernels cannot serve
    exactly — counts beyond 2**53, or a zero denominator under a
    nonempty pool — which the big-int loops of
    :class:`~repro.bgpsim.metrics_kernel.MetricDAG` serve instead.  The
    other kernels are methods; every float they return is bit-identical
    to those loops (see the module notes).

    A width-1 sweep of one routing state (:func:`state_sweep`) also
    carries the navigation fields of a ``MetricDAG``: ``asns``,
    ``order`` (routed nodes by path length, then index), ``lengths``,
    ``routed``, ``seed_idx`` and :meth:`idx`.
    """

    def __init__(self, n, width, lvl, seeds, slot, cp, pp, glevel, bounds):
        np = _numpy()
        self.n, self.width = n, width
        self.lvl, self.seeds = lvl, seeds
        self.slot, self.cp, self.pp = slot, cp, pp
        self.glevel, self.bounds = glevel, bounds
        cells = width * n
        groups = glevel.size
        pool = np.bincount(cp, minlength=cells)
        self.single = pool == 1

        cnt = np.zeros(cells, dtype=np.int64)
        cnt[seeds] = 1
        den = np.zeros(cells, dtype=np.int64)
        bad = np.zeros(width, dtype=bool)
        # past 1023 parents even clamped counts could wrap int64: a float
        # shadow sum then flags the overflow
        wide = bool(cp.size) and int(pool.max()) >= 1024
        reseed = bool(pool[seeds].any())
        for g in range(groups):
            edges = slice(bounds[g], bounds[g + 1])
            c, p = cp[edges], pp[edges]
            vals = cnt[p]
            np.add.at(den, c, vals)
            s = den[c]
            over = s > _EXACT_FLOAT_MAX
            if wide:
                shadow = np.zeros(cells)
                np.add.at(shadow, c, vals.astype(np.float64))
                over |= shadow[c] > _EXACT_FLOAT_MAX
            if over.any():
                bad[slot[edges][over]] = True
                s = np.minimum(s, _COUNT_CAP)
            cnt[c] = s
            if reseed:
                cnt[seeds] = 1  # a seed counts one path, parents or not
        bad[slot[den[cp] == 0]] = True
        self.cnt, self.bad = cnt, bad
        self.cntf = cnt.astype(np.float64)
        self.denf = den.astype(np.float64)
        self._mass = None

    # -- §7 reliance -------------------------------------------------------
    def mass(self, mass):
        """The §7 backward sweep, in place over ``mass`` (each cell's
        starting mass, float64) — which it returns.

        Level groups run descending, and each group's edges reversed, so
        every parent collects its children's shares in descending node
        order, one ``np.add.at`` step at a time: the accumulation order
        of the big-int loop.  A share is ``counts[p] / denom`` (exactly
        1.0 for a single parent, where the loop adds the mass as is).
        """
        np = _numpy()
        cp, pp, b = self.cp, self.pp, self.bounds
        with np.errstate(divide="ignore", invalid="ignore"):
            share = self.cntf[pp] / self.denf[cp]
        for g in range(self.glevel.size - 1, -1, -1):
            lo, hi = b[g], b[g + 1]
            c = cp[lo:hi][::-1]
            np.add.at(mass, pp[lo:hi][::-1], mass[c] * share[lo:hi][::-1])
        return mass

    # -- hegemony crossing fractions ----------------------------------------
    def _descendants(self, targets, live):
        """``(ceil(T / 64), width * n)`` uint64: bit *j* of a cell is set
        when the cell is ``targets[j]`` or one of its descendants in the
        slot's DAG, for the ``live`` (slot, target) pairs."""
        np = _numpy()
        n = self.n
        words = (targets.size + 63) >> 6
        desc = np.zeros((words, self.width * n), dtype=np.uint64)
        kk, jj = np.nonzero(live)
        np.bitwise_or.at(
            desc,
            (jj >> 6, kk * n + targets[jj]),
            np.uint64(1) << (jj & 63).astype(np.uint64),
        )
        cp, pp, b = self.cp, self.pp, self.bounds
        for g in range(self.glevel.size):
            c, p = cp[b[g] : b[g + 1]], pp[b[g] : b[g + 1]]
            for w in range(words):
                np.bitwise_or.at(desc[w], c, desc[w][p])
        return desc

    def _slot_counts(self, desc, count: int):
        """``(width, count)``: per slot, the cells with bit *j* set.
        Histograms each byte position's values per slot, then counts the
        bits of the 256 byte values (integer counts, exact)."""
        np = _numpy()
        table = _byte_bits()[3]
        width = self.width
        base = np.arange(width, dtype=np.int64)[:, None] * 256
        out = []
        for row in desc:
            octets = row.astype("<u8", copy=False).view(np.uint8)
            octets = octets.reshape(width, self.n, 8)
            for b in range(8):
                hist = np.bincount(
                    (octets[:, :, b] + base).ravel(), minlength=width * 256
                )
                out.append(hist.reshape(width, 256) @ table)
        return np.concatenate(out, axis=1)[:, :count]

    def fractions(self, ck, tn, cj, desc):
        """``(C, n)`` crossing fractions of C columns: column *c* holds,
        for every node of slot ``ck[c]``'s DAG, the fraction of its
        tied-best paths that cross node ``tn[c]`` (1.0 at that target),
        whose descendant cells carry bit ``cj[c]`` of ``desc``.

        Only descendants are computed: every other cell's fraction is
        0.0, so dropping a parent that is not a descendant drops an
        exact ``+ 0.0`` term.  Per level, each edge's parent bits ANDed
        with its slot's column bits name the columns it feeds; a child
        accumulates ``fraction * count`` over those parents with
        ``np.add.at``, in ascending parent order as the big-int loop
        adds them, and then takes ``numer / denom`` — or, with a single
        parent, inherits that parent's fraction as is.
        """
        np = _numpy()
        n, width = self.n, self.width
        cp, pp, b = self.cp, self.pp, self.bounds
        cols = ck.size
        words = desc.shape[0]
        frac = np.zeros(cols * n)
        frac[np.arange(cols) * n + tn] = 1.0
        # column (k, j) holds cell k * n + i at frac[c * n + i]: ``shift``
        # maps slot * 64 * words + j to that c * n - k * n
        shift = np.zeros(width * 64 * words, dtype=np.int64)
        shift[ck * (64 * words) + cj] = (np.arange(cols) - ck) * n
        wanted = np.zeros((words, width), dtype=np.uint64)
        np.bitwise_or.at(
            wanted,
            (cj >> 6, ck),
            np.uint64(1) << (cj & 63).astype(np.uint64),
        )
        slot = self.slot
        ebase = slot * (64 * words)
        for g in range(self.glevel.size):
            lo, hi = b[g], b[g + 1]
            for w in range(words):
                hits = desc[w][pp[lo:hi]] & wanted[w][slot[lo:hi]]
                e = np.flatnonzero(hits != 0)
                if not e.size:
                    continue
                r, j = _set_bits(hits[e])
                e = e[r] + lo
                sc = shift[ebase[e] + (64 * w + j)]
                p, c = pp[e], cp[e]
                at, src = c + sc, p + sc
                one = self.single[c]
                frac[at[one]] = frac[src[one]]
                many = ~one
                at, p, c = at[many], p[many], c[many]
                np.add.at(frac, at, frac[src[many]] * self.cntf[p])
                frac[at] = frac[at] / self.denf[c]
        return frac.reshape(cols, n)

    def hegemony(self, origins, targets, same, trim: float):
        """``(width, T)`` float64 local-hegemony rows: slot *k* toward
        node ``targets[j]`` (-1: not in the graph; 0.0), NaN where
        ``same[k, j]`` (the target is the row's origin).  ``origins[k]``
        is the node whose cell is no sample (-1: none).

        A value is the trimmed mean of the crossing fractions of every
        routed node but the origin and the target.  Fractions are
        ``>= 0``, so sorted samples start with their zeros, and adding
        ``+0.0`` changes neither the running sum nor the compensation of
        builtin ``sum``: a value is the ``sum`` of the *nonzero* part of
        its kept slice over the kept width.  The descendant bitmasks give
        every column's exact nonzero count, so the float recurrence runs
        only on the columns whose kept slice reaches past its zeros; the
        trim cuts every nonzero cell of the rest, which are ``0.0``.
        """
        np = _numpy()
        width, n = self.width, self.n
        t = np.asarray(targets, dtype=np.int64)
        org = np.asarray(origins, dtype=np.int64)
        routed = (self.lvl >= 0).reshape(width, n)
        slots = np.arange(width)
        live = (t >= 0)[None, :] & routed[:, np.maximum(t, 0)] & ~same
        sample_origin = (org >= 0) & routed[slots, np.maximum(org, 0)]
        nsmp = routed.sum(axis=1) - 1 - sample_origin
        rows = np.where(same, np.nan, 0.0)
        if not live.any():
            return rows
        desc = self._descendants(t, live)
        # strict descendants (an origin cell among them only selects one
        # column too many: each kept slice is cut from its column's own
        # nonzero cells below)
        nz = self._slot_counts(desc, t.size) - live
        lo = np.zeros(width, dtype=np.int64)
        hi = np.zeros(width, dtype=np.int64)
        for k in np.flatnonzero(live.any(axis=1)).tolist():
            count = int(nsmp[k])
            cut = int(count * trim)
            a, b, _ = slice(cut, count - cut).indices(count)
            if b <= a:
                a, b = 0, count  # an empty kept slice keeps every sample
            lo[k], hi[k] = a, b
        zeros = nsmp[:, None] - nz
        first = np.maximum(lo[:, None] - zeros, 0)
        last = np.maximum(hi[:, None] - zeros, 0)
        ck, cj = np.nonzero(live & (first < last))
        step = max(1, _CELL_BUDGET // n)
        for s in range(0, ck.size, step):
            k, j = ck[s : s + step], cj[s : s + step]
            frac = self.fractions(k, t[j], j, desc)
            own = sample_origin[k]
            frac[np.flatnonzero(own), org[k[own]]] = 0.0
            # every column's nonzero cells, column after column: the
            # target's own 1.0 sorts last, past every kept slice
            nonzero = frac != 0.0
            values = frac[nonzero]
            ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
            begin = 0
            for end, kc, jc in zip(ends, k.tolist(), j.tolist()):
                samples = values[begin:end]
                samples.sort()
                gap = int(nsmp[kc]) - (end - begin - 1)  # its zero samples
                kept = samples[max(lo[kc] - gap, 0) : max(hi[kc] - gap, 0)]
                rows[kc, jc] = sum(kept.tolist()) / int(hi[kc] - lo[kc])
                begin = end
        return rows

    # -- width-1 conveniences (state_sweep) ----------------------------------
    def idx(self, asn: int) -> Optional[int]:
        """Node index of ``asn`` (None when absent from the graph)."""
        i = bisect_left(self.asns, asn)
        if i < len(self.asns) and self.asns[i] == asn:
            return i
        return None

    @property
    def keys(self) -> list:
        """ASNs in ``order`` sequence (the kernels' output-dict keys)."""
        keys = self.__dict__.get("_keys")
        if keys is None:
            asns = self.asns
            keys = self._keys = [asns[i] for i in self.order]
        return keys

    def reliance(self, receivers: Optional[Collection[int]] = None):
        """Node-indexed reliance mass toward ``receivers`` (default: every
        routed non-seed node, cached; callers must not mutate it)."""
        if receivers is None and self._mass is not None:
            return self._mass
        np = _numpy()
        if receivers is None:
            mass = (self.lvl >= 0).astype(np.float64)
            mass[self.seeds] = 0.0
        else:
            mass = np.zeros(self.n)
            for asn in receivers:
                i = self.idx(asn)
                if i is not None and self.routed[i] and i not in self.seed_idx:
                    mass[i] = 1.0
        self.mass(mass)
        if receivers is None:
            self._mass = mass
        return mass

    def cross_fractions(self, targets) -> list[dict[int, float]]:
        """ASN-keyed crossing fractions (in ``order``) toward each target;
        ``{}`` for a target that is unrouted or not in the graph."""
        np = _numpy()
        results: list[dict[int, float]] = [{} for _ in targets]
        live = [
            (j, i)
            for j, i in enumerate(self.idx(t) for t in targets)
            if i is not None and self.routed[i]
        ]
        if not live:
            return results
        keys, order = self.keys, self._order
        tn = np.array([i for _, i in live], dtype=np.int64)
        desc = self._descendants(tn, np.ones((1, tn.size), dtype=bool))
        step = max(1, _CELL_BUDGET // self.n)
        for s in range(0, tn.size, step):
            cols = np.arange(s, min(s + step, tn.size))
            frac = self.fractions(
                np.zeros(cols.size, np.int64), tn[cols], cols, desc
            )
            for c, col in enumerate(cols.tolist()):
                values = frac[c, order].tolist()
                results[live[col][0]] = dict(zip(keys, values))
        return results

    def hegemony_row(self, origin: int, targets, trim: float) -> array:
        """One origin's local hegemony toward every target, as a compact
        float array (NaN where target == origin)."""
        np = _numpy()
        o, *t = (self.idx(a) for a in (origin, *targets))
        row = self.hegemony(
            [-1 if o is None else o],
            [-1 if i is None else i for i in t],
            np.array([[a == origin for a in targets]], dtype=bool),
            trim,
        )
        return _to_array("d", row[0])


def state_sweep(state) -> MetricSweep:
    """The width-1 :class:`MetricSweep` of one array routing state.

    A :class:`CompiledRoutingState` (or a batch view) supplies its linked
    parent pools, walked for every node in parallel (one gather per
    list depth).
    """
    np = _numpy()
    asns = state._asns
    n = len(asns)
    rc = _as_np(state._route_class)
    ln = _as_np(state._length).astype(np.int64)
    routed = rc != _NO_ROUTE
    lvl = np.where(routed, ln, -1)

    # parent edges: walk every linked pool in parallel
    head = _as_np(state._parent_head).astype(np.int64)
    pool_parent = _as_np(state._pool_parent).astype(np.int64)
    pool_next = _as_np(state._pool_next).astype(np.int64)
    child_parts: list = []
    parent_parts: list = []
    node = np.flatnonzero(routed & (head >= 0))
    cur = head[node]
    while node.size:
        child_parts.append(node)
        parent_parts.append(pool_parent[cur])
        cur = pool_next[cur]
        alive = cur >= 0
        node, cur = node[alive], cur[alive]
    if child_parts:
        child = np.concatenate(child_parts)
        parent = np.concatenate(parent_parts)
        o = np.lexsort((parent, child))
        child, parent = child[o], parent[o]
        o = np.argsort(lvl[child], kind="stable")
        child, parent = child[o], parent[o]
    else:
        child = parent = np.empty(0, dtype=np.int64)
    elvl = lvl[child]
    glevel, starts = np.unique(elvl, return_index=True)
    bounds = np.append(starts, elvl.size).astype(np.int64)

    seed_idx = frozenset(
        i
        for i in (state._idx(asn) for asn in state.seed_asns)
        if i is not None
    )
    seeds = np.array(sorted(seed_idx), dtype=np.int64)
    sweep = MetricSweep(
        n, 1, lvl, seeds, np.zeros(child.size, dtype=np.int64), child,
        parent, glevel, bounds,
    )
    # routed nodes by path length, node index ascending within a length
    idxs = np.flatnonzero(routed)
    order = idxs[np.argsort(ln[idxs], kind="stable")]
    sweep.asns = asns
    sweep._order = order
    sweep.order = order.tolist()
    sweep.lengths = ln[order].tolist()
    sweep.routed = bytearray(routed.astype(np.uint8).tobytes())
    sweep.seed_idx = seed_idx
    return sweep


def build_metric_dag_vector(batch, targets, trim: float) -> list:
    """The metric kernel over a whole
    :class:`~repro.bgpsim.multiorigin.BatchRoutingState`.

    Returns one entry per batch bit: ``(reliance, counts, hegemony,
    routed)`` — the node-indexed float64 reliance mass toward every
    routed AS (seeds zeroed) and tied-best-path counts, the hegemony row
    toward ``targets`` (NaN at the origin) as a float array, and the
    routed count — or ``None`` for an origin whose counts pass 2**53,
    which the caller serves through the big-int loops.  The rest of the
    batch stays batched.

    The batch runs in sub-chunks of at most 64 origins (one mask word),
    fewer where ``64 * n`` cells would pass the cell budget: the tie rows
    are unpacked one mask word at a time into a :class:`MetricSweep`.
    Each origin's edges keep the canonical order a width-1 sweep gives
    it, so its row does not depend on the batch it rides in.
    """
    np = _numpy()
    n = batch.graph.n
    by_level = np.argsort(batch._tie_level, kind="stable")
    step = max(1, min(64, _CELL_BUDGET // max(n, 1)))
    out: list = []
    lo = 0
    while lo < batch.width:
        width = min(step, batch.width - lo, 64 - (lo & 63))
        out += _sub_chunk_rows(batch, lo, width, by_level, targets, trim)
        lo += width
    return out


def _sub_chunk_rows(batch, lo: int, width: int, by_level, targets, trim):
    """The :func:`build_metric_dag_vector` entries of one sub-chunk (its
    sweep is dropped on return; the rows keep only their own arrays)."""
    np = _numpy()
    n, index = batch.graph.n, batch.graph.index
    origins = batch.origins[lo : lo + width]
    sweep = _batch_sweep(batch, lo, width, by_level)
    routed = sweep.lvl >= 0
    mass = routed.astype(np.float64)
    mass[sweep.seeds] = 0.0
    sweep.mass(mass)
    mass[sweep.seeds] = 0.0
    rows = sweep.hegemony(
        [index[o] for o in origins],
        [index.get(t, -1) for t in targets],
        np.array([[t == o for t in targets] for o in origins], bool),
        trim,
    )
    counts = np.count_nonzero(routed.reshape(width, n), axis=1)
    return [
        None
        if sweep.bad[k]
        else (
            mass[k * n : (k + 1) * n],
            sweep.cntf[k * n : (k + 1) * n],
            _to_array("d", rows[k]),
            int(counts[k]) - 1,
        )
        for k in range(width)
    ]


def _batch_sweep(batch, lo: int, width: int, by_level) -> MetricSweep:
    """The :class:`MetricSweep` of batch bits ``lo`` to ``lo + width - 1``
    (all in one mask word).  ``by_level`` orders the tie rows by level,
    stably, so each level keeps its (child, parent) order."""
    np = _numpy()
    n = batch.graph.n
    word = lo >> 6
    shift = np.uint64(lo & 63)
    keep = np.uint64((1 << width) - 1)

    index = batch.graph.index
    seeds = np.arange(width, dtype=np.int64) * n + np.fromiter(
        (index[o] for o in batch.origins[lo : lo + width]), np.int64, width
    )

    tied = (batch._tie_masks[word][by_level] >> shift) & keep
    hit = np.flatnonzero(tied != 0)
    r, k = _set_bits(tied[hit])
    rows = by_level[hit[r]]
    # rows run (level, child, parent); a stable sort on (level group,
    # slot) makes the edge order (level, slot, child, parent)
    level = batch._tie_level[rows]
    group = np.zeros(level.size, dtype=np.int64)
    group[1:] = level[1:] != level[:-1]
    np.cumsum(group, out=group)
    glevel = level[np.flatnonzero(np.diff(group, prepend=-1) != 0)]
    o = np.argsort((group * width + k).astype(np.uint16), kind="stable")
    rows, k = rows[o], k[o]
    bounds = np.zeros(glevel.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=glevel.size), out=bounds[1:])
    base = k * n
    child = base + batch._tie_child[rows]
    # every routed cell but the seed has a tied parent, one level up
    lvl = np.full(width * n, -1, dtype=np.int64)
    lvl[child] = batch._tie_level[rows]
    lvl[seeds] = 0
    return MetricSweep(
        n,
        width,
        lvl,
        seeds,
        k,
        child,
        base + batch._tie_parent[rows],
        glevel.astype(np.int64),
        bounds,
    )
