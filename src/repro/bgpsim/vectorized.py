"""Numpy kernels for compiled propagation and the metric DAG passes.

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
  uint64 mask matrices; the batch keeps its arrival buckets as numpy
  arrays, and :func:`batch_view_column` / :func:`batch_view_pool`
  rebuild one origin's compiled arrays from them.
* :func:`build_metric_dag_vector` and the kernel twins
  (:func:`reliance_mass_vector`, :func:`cross_fractions_vector`,
  :func:`length_histogram_vector`) — the DAG passes as level-batched
  forward/backward sweeps.  Float accumulation keeps the canonical order
  of the array-loop kernels in :mod:`repro.bgpsim.metrics_kernel`
  (``np.add.at`` adds sequentially, levels are processed in the same
  direction, parents ascending within a node), so float results are
  **bit-identical** to them and to the dict metrics of
  :mod:`repro.core`.  When tied-best-path counts exceed 2**53 (where
  int→float64 casts stop being exact) the builders return ``None`` and
  callers fall back to the array loops, which keep exact big ints.

numpy is a required dependency, imported on the first kernel call rather
than at ``import repro``, so commands that never run a kernel (``repro
serve`` answering from precomputed shards, ``--help``) do not pay for it.

Equivalence with the reference engine and the dict metrics is proven by
the differential harnesses in ``tests/test_vectorized_engine.py``,
``tests/test_compiled_engine.py`` and ``tests/test_metric_kernels.py``.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Collection, Mapping
from itertools import compress
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
    "propagate_compiled_vector",
    "propagate_batch_vector",
    "batch_view_column",
    "batch_view_pool",
    "build_metric_dag_vector",
    "path_counts_vector",
    "metric_row_buffers",
    "reliance_mass_vector",
    "reliance_vector",
    "cross_fractions_vector",
    "cross_fractions_many_vector",
    "hegemony_values_vector",
    "length_histogram_vector",
]

#: largest integer exactly representable as a float64; tied-best-path
#: counts beyond this make the int→float casts inexact, so the
#: vectorized kernels hand back to the big-int array loops
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
        receivers; returns per-edge (recv, mask-rows)."""
        starts = off[nodes]
        counts = off[nodes + 1] - starts
        if not int(counts.sum()):
            return None
        recv = nbr[_seg_arange(starts, counts)]
        rmask = np.repeat(masks, counts, axis=0)
        keep = ~exm[recv]
        if not keep.any():
            return None
        return recv[keep], rmask[keep]

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
        any_new = newm.any(axis=1)
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
            uq, acc = _aggregate(*edges)
            rem = acc & ~cust[uq]
            alive = rem.any(axis=1)
            nodes, masks = uq[alive], rem[alive]
        level += 1

    # -- phase 2: one peer hop, customer levels ascending ----------------
    peer_levels: list[tuple[int, "object", "object"]] = []
    for src_level, lnodes, lmasks in cust_levels:
        edges = _expand(qoff, qnbr, lnodes, lmasks)
        if edges is None:
            continue
        recv, rmask = edges
        bits = rmask & ~cust[recv] & ~peer[recv]
        alive = bits.any(axis=1)
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
        rmask = np.concatenate([p[1] for p in parts])
        uq, acc = _aggregate(recv, rmask)
        new = acc & ~cust[uq] & ~peer[uq] & ~prov[uq]
        alive = new.any(axis=1)
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
    )


def _parent_edges(cg: CompiledGraph) -> tuple:
    """Every candidate parent edge of a compiled graph, sorted by
    (child, parent) and cached with the CSR views (built on the first
    batch view, never by ``compile()``).

    Returns ``(child, parent, cls, widest)``: edge *e* can carry
    ``child[e]``'s best route only when that route has class ``cls[e]``
    — 0 when ``parent[e]`` is a customer of the child, 1 a peer, 2 a
    provider — and the parent's own route class is at most
    ``widest[e]`` (customers and peers export only customer routes,
    providers export every route).
    """
    g = _graph_arrays(cg)
    edges = g.get("parent_edges")
    if edges is None:
        np = _numpy()
        rows = ((g["coff"], g["cnbr"]), (g["qoff"], g["qnbr"]),
                (g["poff"], g["pnbr"]))
        nodes = np.arange(cg.n, dtype=np.int64)
        child = np.concatenate([np.repeat(nodes, np.diff(off))
                                for off, _ in rows])
        parent = np.concatenate([nbr for _, nbr in rows])
        cls = np.repeat(np.arange(3, dtype=np.uint8),
                        [nbr.size for _, nbr in rows])
        o = np.lexsort((parent, child))
        child, parent, cls = child[o], parent[o], cls[o]
        widest = np.where(cls == 2, 2, 0).astype(np.uint8)
        edges = g["parent_edges"] = (child, parent, cls, widest)
    return edges


def batch_view_column(batch, bit: int, n: int) -> tuple[bytearray, array]:
    """One batch bit's route-class and path-length columns, at the
    compact storage a :class:`CompiledRoutingState` uses: nodes where
    the bit arrived take their bucket's class and level, the rest stay
    unrouted."""
    np = _numpy()
    hit = np.flatnonzero(
        batch._masks[bit >> 6] & np.uint64(1 << (bit & 63))
    )
    nodes = batch._nodes[hit]
    levels = batch._levels[hit]
    rc = np.full(n, _NO_ROUTE, dtype=np.uint8)
    rc[nodes] = batch._classes[hit]
    ln = np.zeros(n, dtype=np.int64)
    ln[nodes] = levels
    max_len = int(levels.max()) if levels.size else 0
    return bytearray(rc.tobytes()), _to_array(_unsigned_typecode(max_len), ln)


def batch_view_pool(cg: CompiledGraph, rc, ln) -> tuple:
    """``(parent_head, pool_parent, pool_next, routed)`` of one batch
    view, from its class/length columns.

    A node's tied parents are the neighbours on the edges that can carry
    its route class whose route is exportable to it and one hop shorter
    (first-arrival levels make that exactly the tie set), so one
    vectorised filter over :func:`_parent_edges` picks every parent edge
    at once, already in the (child, parent) order of
    :func:`propagate_compiled_vector`'s pools.  Seeds keep no parents:
    nothing routes at length -1.
    """
    np = _numpy()
    child, parent, cls, widest = _parent_edges(cg)
    rcn = _as_np(rc)
    lnn = _as_np(ln).astype(np.int64)
    k = np.flatnonzero(rcn[child] == cls)
    c, p = child[k], parent[k]
    keep = (rcn[p] <= widest[k]) & (lnn[p] + 1 == lnn[c])
    return _linked_pool(
        cg.n, c[keep], p[keep], np.flatnonzero(rcn != _NO_ROUTE)
    )


# ---------------------------------------------------------------------------
# metric DAG build (the MetricDAG constructor's twin)
# ---------------------------------------------------------------------------


def build_metric_dag_vector(state):
    """Vectorized :class:`~repro.bgpsim.metrics_kernel.MetricDAG` build.

    Produces a genuine ``MetricDAG`` (plain-list fields, identical to the
    pure constructor's output) so every existing consumer — including the
    exact-``Fraction`` reference paths — works unchanged.  Returns
    ``None`` when tied-best-path counts overflow the exact-float range,
    in which case the caller builds the DAG with the pure big-int loop.
    """
    from .incremental import DeltaRoutingState
    from .metrics_kernel import MetricDAG

    np = _numpy()
    if isinstance(state, DeltaRoutingState):
        base, overrides = state._baseline, state._overrides
    else:
        base, overrides = state, None
    asns = base._asns
    n = len(asns)
    rc = _as_np(base._route_class)
    ln = _as_np(base._length).astype(np.int64)
    if overrides:
        rc = rc.copy()
        for i, override in overrides.items():
            rc[i] = override[0]
            if override[0] != _NO_ROUTE:
                ln[i] = override[1]
    routed_mask = rc != _NO_ROUTE
    idxs = np.nonzero(routed_mask)[0].astype(np.int64)
    m = idxs.size
    # stable sort by length == the pure counting sort: length ascending,
    # node index ascending within a length
    order = idxs[np.argsort(ln[idxs], kind="stable")]
    lengths = ln[order]
    positions = np.arange(m, dtype=np.int64)

    # parent edges: walk every linked pool in parallel (one gather per
    # linked-list depth), overridden nodes replaced by their override sets
    head = _as_np(base._parent_head).astype(np.int64)[order]
    if overrides:
        ov_nodes = np.fromiter(overrides.keys(), np.int64, len(overrides))
        head[np.isin(order, ov_nodes)] = -1
    pool_parent = _as_np(base._pool_parent).astype(np.int64)
    pool_next = _as_np(base._pool_next).astype(np.int64)
    pos_parts: list = []
    par_parts: list = []
    apos, acur = positions, head
    alive = acur >= 0
    apos, acur = apos[alive], acur[alive]
    while apos.size:
        pos_parts.append(apos)
        par_parts.append(pool_parent[acur])
        acur = pool_next[acur]
        alive = acur >= 0
        apos, acur = apos[alive], acur[alive]
    if overrides:
        pos_lookup = np.full(n, -1, dtype=np.int64)
        pos_lookup[order] = positions
        extra_pos: list[int] = []
        extra_par: list[int] = []
        for i, override in overrides.items():
            if override[0] == _NO_ROUTE:
                continue
            k = int(pos_lookup[i])
            for p in override[2]:
                extra_pos.append(k)
                extra_par.append(p)
        if extra_pos:
            pos_parts.append(np.asarray(extra_pos, np.int64))
            par_parts.append(np.asarray(extra_par, np.int64))
    if pos_parts:
        epos = np.concatenate(pos_parts)
        epar = np.concatenate(par_parts)
        o = np.lexsort((epar, epos))
        epos, epar = epos[o], epar[o]
    else:
        epos = epar = np.empty(0, dtype=np.int64)
    edge_counts = np.bincount(epos, minlength=m).astype(np.int64)
    par_off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(edge_counts, out=par_off[1:])

    # tied-best-path counts, level-batched; parents are strictly shorter
    # so each level reads only finalized values
    seed_idx = frozenset(
        i
        for i in (base._idx(asn) for asn in state.seed_asns)
        if i is not None
    )
    seed_arr = np.fromiter(seed_idx, np.int64, len(seed_idx))
    seed_arr.sort()
    is_seed = np.zeros(n, dtype=bool)
    is_seed[seed_arr] = True
    nonseed_pos = ~is_seed[order]
    counts = np.zeros(n, dtype=np.int64)
    counts[seed_arr] = 1
    if m:
        bounds = np.nonzero(np.diff(lengths))[0] + 1
        level_lo = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
        level_hi = np.concatenate((bounds, [m]))
    else:
        level_lo = level_hi = np.empty(0, dtype=np.int64)
    # with pools of at most 1024 parents, a level sum of ≤2**53 counts
    # cannot wrap int64, so the cheap post-check suffices; wider pools
    # keep the per-level conservative pre-check
    global_pool_max = int(edge_counts.max()) if m else 0
    narrow_pools = global_pool_max <= 1024
    # which levels contain a seed (only those need the scatter mask)
    seed_in_level = np.zeros(level_lo.size, dtype=bool)
    if seed_arr.size and m:
        spos = np.nonzero(~nonseed_pos)[0]
        seed_in_level[
            np.searchsorted(level_lo, spos, side="right") - 1
        ] = True
    denom_pos = np.zeros(m, dtype=np.int64)
    for li, (a, b) in enumerate(zip(level_lo.tolist(), level_hi.tolist())):
        ea, eb = int(par_off[a]), int(par_off[b])
        node_sum = np.zeros(b - a, dtype=np.int64)
        if eb > ea:
            vals = counts[epar[ea:eb]]
            if not narrow_pools:
                prev_max = int(vals.max())
                # bail out before int64 accumulation can wrap
                if prev_max and global_pool_max > (1 << 62) // prev_max:
                    return None
            np.add.at(node_sum, epos[ea:eb] - a, vals)
            # counts beyond 2**53 leave the exactly-float range
            if int(node_sum.max()) > _EXACT_FLOAT_MAX:
                return None
        denom_pos[a:b] = node_sum
        tgt = order[a:b]
        if seed_in_level[li]:
            ns = nonseed_pos[a:b]
            counts[tgt[ns]] = node_sum[ns]
        else:
            counts[tgt] = node_sum

    dag = MetricDAG.__new__(MetricDAG)
    dag.asns = asns
    dag.counts = counts.tolist()
    dag.n = n
    dag.order = order.tolist()
    dag.lengths = lengths.tolist()
    dag.par_off = par_off.tolist()
    dag.parents = epar.tolist()
    dag.routed = bytearray(routed_mask.astype(np.uint8).tobytes())
    dag.seed_idx = seed_idx
    # the builder already has every kernel-cache array in hand, so the
    # numpy cache is preset instead of rebuilt from the lists on demand
    _finish_npc(
        dag,
        order=order,
        lengths=lengths,
        par_off=par_off,
        parents=epar,
        counts=counts,
        denom=denom_pos,
        seed_arr=seed_arr,
        levels=(level_lo, level_hi),
        nonseed=nonseed_pos,
    )
    return dag


def _finish_npc(
    dag, *, order, lengths, par_off, parents, counts, denom, seed_arr,
    levels, nonseed
):
    """Assemble and attach a :class:`MetricDAG`'s numpy kernel cache."""
    np = _numpy()
    pools = np.diff(par_off)
    npc = {
        "order": order,
        "lengths": lengths,
        "par_off": par_off,
        "parents": parents,
        "counts": counts,
        "countsf": counts.astype(np.float64),
        "denomf": denom.astype(np.float64),
        "seed_arr": seed_arr,
        "levels": levels,
        "nonseed": nonseed,
        # a zero denominator under a nonempty pool would make the pure
        # kernels raise; hand those (pathological) DAGs back to them
        "zero_denom": bool(np.any((denom == 0) & (pools > 0))),
        # lazy per-DAG caches: node->position lookup, ASN keys in order
        # sequence, the per-level sweep plans the kernels replay, and the
        # node-indexed reliance mass toward every receiver
        "pos": None,
        "keys": None,
        "rel_plan": None,
        "cf_plan": None,
        "mass": None,
    }
    dag._np = npc
    return npc


def _dag_np(dag):
    """The numpy kernel cache of a :class:`MetricDAG` (lazy, cached on
    the DAG).  ``None`` when the DAG cannot be served exactly by float64
    kernels (counts or denominators beyond 2**53)."""
    npc = getattr(dag, "_np", None)
    if npc is False:
        return None
    if npc is not None:
        return npc
    np = _numpy()
    try:
        counts = np.asarray(dag.counts, dtype=np.int64)
    except OverflowError:
        dag._np = False
        return None
    if counts.size and int(counts.max()) > _EXACT_FLOAT_MAX:
        dag._np = False
        return None
    order = np.asarray(dag.order, dtype=np.int64)
    m = order.size
    lengths = np.asarray(dag.lengths, dtype=np.int64)
    par_off = np.asarray(dag.par_off, dtype=np.int64)
    parents = np.asarray(dag.parents, dtype=np.int64)
    pools = np.diff(par_off)
    # guard the denominator accumulation the same way the builder guards
    # the counts: no int64 wrap, and exact as float64
    prev_max = int(counts.max()) if counts.size else 0
    pool_max = int(pools.max()) if pools.size else 0
    if prev_max and pool_max > (1 << 62) // prev_max:
        dag._np = False
        return None
    edge_pos = np.repeat(np.arange(m, dtype=np.int64), pools)
    seed_arr = np.fromiter(dag.seed_idx, np.int64, len(dag.seed_idx))
    seed_arr.sort()
    if m:
        bounds = np.nonzero(np.diff(lengths))[0] + 1
        level_lo = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
        level_hi = np.concatenate((bounds, [m]))
    else:
        level_lo = level_hi = np.empty(0, dtype=np.int64)
    denom = np.zeros(m, dtype=np.int64)
    np.add.at(denom, edge_pos, counts[parents])
    if denom.size and int(denom.max()) > _EXACT_FLOAT_MAX:
        dag._np = False
        return None
    is_seed = np.zeros(dag.n, dtype=bool)
    is_seed[seed_arr] = True
    return _finish_npc(
        dag,
        order=order,
        lengths=lengths,
        par_off=par_off,
        parents=parents,
        counts=counts,
        denom=denom,
        seed_arr=seed_arr,
        levels=(level_lo, level_hi),
        nonseed=~is_seed[order],
    )


def _pos_of(dag, npc):
    """Node-index -> DAG-position lookup array (lazy, cached)."""
    pos = npc["pos"]
    if pos is None:
        np = _numpy()
        pos = np.full(dag.n, -1, dtype=np.int64)
        pos[npc["order"]] = np.arange(npc["order"].size, dtype=np.int64)
        npc["pos"] = pos
    return pos


def _keys_of(dag, npc):
    """ASNs in DAG-order sequence (the kernels' output-dict keys)."""
    keys = npc["keys"]
    if keys is None:
        asns = dag.asns
        keys = [asns[i] for i in dag.order]
        npc["keys"] = keys
    return keys


def _rel_plan(dag, npc):
    """Per-level backward-sweep plan for the reliance kernel: for each
    length level (descending) the child nodes (descending), their pool
    sizes, the flattened parent indices (ascending within a child) and
    each edge's precomputed share ``counts[p] / denom`` — everything
    that does not depend on the receiver set."""
    plan = npc["rel_plan"]
    if plan is None:
        np = _numpy()
        order, par_off = npc["order"], npc["par_off"]
        parents = npc["parents"]
        countsf, denomf = npc["countsf"], npc["denomf"]
        level_lo, level_hi = npc["levels"]
        plan = []
        for li in range(level_lo.size - 1, -1, -1):
            a, b = int(level_lo[li]), int(level_hi[li])
            if int(par_off[b]) == int(par_off[a]):
                continue
            ks = np.arange(b - 1, a - 1, -1, dtype=np.int64)
            ct = par_off[ks + 1] - par_off[ks]
            nz = ct > 0
            ks, ct = ks[nz], ct[nz]
            pa = parents[_seg_arange(par_off[ks], ct)]
            # a single parent's share is exactly 1.0, so the multiply
            # matches the pure kernel's add-without-multiply bitwise
            share = countsf[pa] / np.repeat(denomf[ks], ct)
            plan.append((order[ks], ct, pa, share))
        npc["rel_plan"] = plan
    return plan


def _cf_plan(dag, npc):
    """Per-level forward-sweep plan for the cross-fraction kernels, in
    DAG *position* space.

    Per level: the multi-parent rows as *global* positions plus their
    denominators and a list of accumulation steps — step ``j`` holds the
    ``j``-th parent (position + float count) of every row with more than
    ``j`` parents, so replaying the steps left-to-right accumulates each
    row's numerator in exactly the pure kernel's order (parents
    ascending) with plain vector adds instead of a buffered ``ufunc.at``
    — and the single-parent rows with their one parent's position."""
    plan = npc["cf_plan"]
    if plan is None:
        np = _numpy()
        par_off, parents = npc["par_off"], npc["parents"]
        countsf, denomf = npc["countsf"], npc["denomf"]
        level_lo, level_hi = npc["levels"]
        pos = _pos_of(dag, npc)
        empty = np.empty(0, dtype=np.int64)
        plan = []
        for li in range(level_lo.size):
            a, b = int(level_lo[li]), int(level_hi[li])
            ks = np.arange(a, b, dtype=np.int64)
            ct = par_off[ks + 1] - par_off[ks]
            lm = np.nonzero(ct > 1)[0]
            steps: list = []
            denom_m = empty
            if lm.size:
                moff = par_off[ks[lm]]
                mct = ct[lm]
                denom_m = denomf[ks[lm]]
                for j in range(int(mct.max())):
                    rows = np.nonzero(mct > j)[0]
                    par_j = parents[moff[rows] + j]
                    pa_pos = pos[par_j]
                    w_pa = countsf[par_j]
                    # step 0 covers every row (all pools have >= 2
                    # parents), recorded as None for the assign fast path
                    steps.append(
                        (None if rows.size == lm.size else rows,
                         pa_pos, w_pa)
                    )
            ls = np.nonzero(ct == 1)[0]
            sp_pos = pos[parents[par_off[ks[ls]]]] if ls.size else empty
            plan.append((a, b, a + lm, steps, denom_m, a + ls, sp_pos))
        npc["cf_plan"] = plan
    return plan


# ---------------------------------------------------------------------------
# metric kernels (bit-identical float twins)
# ---------------------------------------------------------------------------


def _reliance_mass(state, receivers: Optional[Collection[int]]):
    """The §7 backward mass sweep; ``(dag, npc, mass ndarray)`` or
    ``None`` when the pure fallback must serve.  The mass toward every
    receiver is cached as ``npc["mass"]``; callers must not mutate it."""
    from .metrics_kernel import dag_of

    dag = dag_of(state)
    npc = _dag_np(dag)
    if npc is None or npc["zero_denom"]:
        return None
    if receivers is None and npc["mass"] is not None:
        return dag, npc, npc["mass"]
    np = _numpy()
    mass = np.zeros(dag.n)
    if receivers is None:
        mass[npc["order"]] = 1.0
        mass[npc["seed_arr"]] = 0.0
    else:
        seed_idx = dag.seed_idx
        routed = dag.routed
        for asn in receivers:
            i = dag.idx(asn)
            if i is not None and routed[i] and i not in seed_idx:
                mass[i] = 1.0
    # children whose mass is still zero contribute exact +0.0 terms,
    # which leave every (non-negative) accumulator bit-identical — so no
    # per-call filtering is needed beyond skipping all-zero levels
    for child_nodes, ct, pa, share in _rel_plan(dag, npc):
        cm_k = mass[child_nodes]
        if not cm_k.any():
            continue
        np.add.at(mass, pa, np.repeat(cm_k, ct) * share)
    if receivers is None:
        npc["mass"] = mass
    return dag, npc, mass


def metric_row_buffers(dag):
    """``(reliance, counts)`` float64 node-indexed buffers for a metric
    record, straight from the DAG's numpy cache: the cached all-receiver
    reliance mass with the seeds zeroed (a copy) and the float64
    tied-best-path counts.  ``None`` when the cache holds no mass (no
    numpy cache, or the pure kernels served the reliance)."""
    npc = dag._np
    if not npc or npc["mass"] is None:
        return None
    reliance = npc["mass"].copy()
    reliance[npc["seed_arr"]] = 0.0
    return reliance, npc["countsf"]


def reliance_mass_vector(state, receivers: Optional[Collection[int]] = None):
    """Vectorized float twin of
    :func:`~repro.bgpsim.metrics_kernel.reliance_mass_kernel`.

    One backward sweep per length level, edges ordered (child descending,
    parent ascending) and accumulated with ``np.add.at`` — the exact
    order of the pure kernel, so the masses are bit-identical.  Returns
    ``None`` to request the pure fallback.
    """
    result = _reliance_mass(state, receivers)
    if result is None:
        return None
    dag, _, mass = result
    return dag, mass.tolist()


def reliance_vector(state, receivers: Optional[Collection[int]] = None):
    """Dict-shaped vectorized reliance — the whole of
    :func:`~repro.bgpsim.metrics_kernel.reliance_kernel`, including the
    zero-mass/seed filter and the ASN-keyed assembly (the pure wrapper's
    per-node filter loop costs more than the sweep itself).  Returns
    ``None`` to request the pure fallback."""
    result = _reliance_mass(state, receivers)
    if result is None:
        return None
    dag, npc, mass = result
    mass_ord = mass[npc["order"]]
    keep = npc["nonseed"] & (mass_ord != 0.0)
    keys = _keys_of(dag, npc)
    if bool(keep.all()):
        return dict(zip(keys, mass_ord.tolist()))
    kl = keep.tolist()
    return dict(
        zip(compress(keys, kl), compress(mass_ord.tolist(), kl))
    )


def path_counts_vector(state):
    """ASN-keyed tied-best-path counts — the dict of
    :func:`~repro.bgpsim.metrics_kernel.path_counts_kernel` assembled
    without the per-node Python loop.  Returns ``None`` to request the
    pure fallback (counts beyond 2**53 never reach here — the numpy
    cache refuses to build for them)."""
    from .metrics_kernel import dag_of

    dag = dag_of(state)
    npc = _dag_np(dag)
    if npc is None:
        return None
    counts_ord = npc["counts"][npc["order"]]
    return dict(zip(_keys_of(dag, npc), counts_ord.tolist()))


def cross_fractions_vector(state, target: int):
    """Vectorized float twin of
    :func:`~repro.bgpsim.metrics_kernel.cross_fractions_kernel`
    (forward sweep, single-parent inheritance special-cased to match the
    pure shortcut bitwise).  Returns ``None`` to request the fallback."""
    from .metrics_kernel import dag_of

    dag = dag_of(state)
    npc = _dag_np(dag)
    if npc is None or npc["zero_denom"]:
        return None
    ti = dag.idx(target)
    if ti is None or not dag.routed[ti]:
        return {}
    np = _numpy()
    m = npc["order"].size
    tk = int(_pos_of(dag, npc)[ti])
    fracp = np.zeros(m)
    # positions are written exactly once, at their own level, so results
    # land directly in fracp; zero-parent rows (seeds) keep the 0.0 the
    # pure sweep assigns them
    for a, b, lm_g, steps, denom_m, ls_g, sp_pos in _cf_plan(dag, npc):
        if b <= tk:
            # every fraction strictly before the target's level is an
            # exact 0.0, the same value the pure sweep computes
            continue
        if steps:
            # replaying the steps adds each row's parents left-to-right
            # (ascending), the pure kernel's accumulation order
            rows0, pa0, w0 = steps[0]
            numer = fracp[pa0] * w0
            for rows, pa_pos, w_pa in steps[1:]:
                numer[rows] += fracp[pa_pos] * w_pa
            fracp[lm_g] = numer / denom_m
        if ls_g.size:
            fracp[ls_g] = fracp[sp_pos]
        if a <= tk < b:
            fracp[tk] = 1.0
    return dict(zip(_keys_of(dag, npc), fracp.tolist()))


def cross_fractions_many_vector(state, targets):
    """Crossing fractions of *many* targets against one state in a
    single forward sweep (one ``(m, T)`` matrix instead of T vector
    passes — the shape of a hegemony target sweep).  Each returned dict
    is bit-identical to :func:`cross_fractions_vector` of that target;
    unrouted targets yield ``{}``.  Returns ``None`` to request the
    per-target fallback."""
    from .metrics_kernel import dag_of

    dag = dag_of(state)
    npc = _dag_np(dag)
    if npc is None or npc["zero_denom"]:
        return None
    targets = list(targets)
    np = _numpy()
    pos = _pos_of(dag, npc)
    tks = np.full(len(targets), -1, dtype=np.int64)
    for j, target in enumerate(targets):
        ti = dag.idx(target)
        if ti is not None and dag.routed[ti]:
            tks[j] = pos[ti]
    live = np.nonzero(tks >= 0)[0]
    results: list[dict] = [{} for _ in targets]
    if not live.size:
        return results
    keys = _keys_of(dag, npc)
    columns = np.ascontiguousarray(_cf_matrix(dag, npc, tks[live]).T)
    for col, j in enumerate(live.tolist()):
        results[j] = dict(zip(keys, columns[col].tolist()))
    return results


def _cf_matrix(dag, npc, lt):
    """The ``(m, len(lt))`` crossing-fraction matrix, one column per
    (routed) target position in ``lt`` — the shared core of the
    many-target sweeps."""
    np = _numpy()
    m = npc["order"].size
    fracp = np.zeros((m, lt.size))
    mintk = int(lt.min())
    for a, b, lm_g, steps, denom_m, ls_g, sp_pos in _cf_plan(dag, npc):
        if b <= mintk:
            continue
        if steps:
            # same stepped replay as the 1-D kernel, one row vector per
            # target column — every column stays bit-identical
            rows0, pa0, w0 = steps[0]
            numer = fracp[pa0] * w0[:, None]
            for rows, pa_pos, w_pa in steps[1:]:
                numer[rows] += fracp[pa_pos] * w_pa[:, None]
            fracp[lm_g] = numer / denom_m[:, None]
        if ls_g.size:
            fracp[ls_g] = fracp[sp_pos]
        hit = (lt >= a) & (lt < b)
        if hit.any():
            fracp[lt[hit], np.nonzero(hit)[0]] = 1.0
    return fracp


def hegemony_values_vector(state, origin: int, targets, trim: float):
    """One origin's local hegemony toward every target, fused: the
    crossing-fraction matrix feeds the trimmed means directly, with no
    intermediate per-target dicts (which dominate the many-dict sweep's
    cost).  Returns ``None`` to request the dict-based fallback.

    Bit-identical to the dict path, which sorts each target's samples
    (the fractions of every routed AS except the origin and the target)
    and ``sum``-s the kept slice.  Fractions are ``>= 0``, so the zeros
    sort first, and adding ``+0.0`` changes neither the running sum nor
    the compensation term of builtin ``sum`` (plain on Python <= 3.11,
    Neumaier-compensated on 3.12+).  A target's value is therefore the
    ``sum`` of the *nonzero* part of its kept slice over the kept width:
    only a column whose kept slice reaches past its zeros has its
    nonzero cells (a few percent of the matrix) sorted and boxed, and on
    most targets the trim cuts every nonzero cell, leaving ``0.0``.
    """
    from .metrics_kernel import dag_of

    dag = dag_of(state)
    npc = _dag_np(dag)
    if npc is None or npc["zero_denom"]:
        return None
    np = _numpy()
    targets = tuple(targets)
    pos = _pos_of(dag, npc)
    oi = dag.idx(origin)
    opos = int(pos[oi]) if oi is not None else -1
    others = [target for target in targets if target != origin]
    tks = np.full(len(others), -1, dtype=np.int64)
    for j, target in enumerate(others):
        ti = dag.idx(target)
        if ti is not None:
            tks[j] = pos[ti]
    live = np.flatnonzero(tks >= 0)
    col_of = {j: c for c, j in enumerate(live.tolist())}
    if live.size:
        lt = tks[live]
        frac = _cf_matrix(dag, npc, lt)
        # the origin's and each target's own cells are not samples
        if opos >= 0:
            frac[opos] = 0.0
        frac[lt, np.arange(lt.size)] = 0.0
        nonzero = frac != 0.0
        counts = np.count_nonzero(nonzero, axis=0).tolist()
        # every live target has the same sample count: each routed AS
        # but the origin and the target itself
        nsmp = npc["order"].size - 1 - (opos >= 0)
        cut = int(nsmp * trim)
        lo, hi, _ = slice(cut, nsmp - cut).indices(nsmp)
        if hi <= lo:
            lo, hi = 0, nsmp  # an empty kept slice keeps every sample
    values = array("d")
    j = 0
    for target in targets:
        if target == origin:
            values.append(math.nan)
            continue
        c = col_of.get(j)
        j += 1
        if c is None or hi <= lo:
            # unrouted target (the dict path sees no fractions at all),
            # or no samples
            values.append(0.0)
            continue
        # the kept slice of the sorted samples, minus its zero prefix
        zeros = nsmp - counts[c]
        a, b = max(lo - zeros, 0), max(hi - zeros, 0)
        kept = (
            np.sort(frac[nonzero[:, c], c])[a:b].tolist() if a < b else ()
        )
        values.append(sum(kept) / (hi - lo))
    return values


def length_histogram_vector(
    state,
    weights: Optional[Mapping[int, float]] = None,
    restrict_to: Optional[Collection[int]] = None,
):
    """Vectorized float twin of
    :func:`~repro.bgpsim.metrics_kernel.length_histogram_kernel`.
    Returns ``None`` to request the pure fallback."""
    from .metrics_kernel import dag_of

    dag = dag_of(state)
    npc = _dag_np(dag)
    if npc is None:
        return None
    np = _numpy()
    lengths = npc["lengths"]
    m = npc["order"].size
    if not m:
        return {}
    keep = npc["nonseed"].copy()
    keys = _keys_of(dag, npc)
    if restrict_to is not None:
        restrict = (
            restrict_to
            if isinstance(restrict_to, (set, frozenset))
            else set(restrict_to)
        )
        keep &= np.fromiter((a in restrict for a in keys), np.bool_, m)
    if weights is None:
        w = np.ones(m)
    else:
        get = weights.get
        w = np.fromiter((float(get(a, 0)) for a in keys), np.float64, m)
    keep &= w != 0.0
    if not keep.any():
        return {}
    ls, ws = lengths[keep], w[keep]
    acc = np.zeros(int(ls.max()) + 1)
    # ls is ascending (order is length-sorted), so per-length adds run in
    # the same sequence as the pure dict accumulation — bit-identical
    np.add.at(acc, ls, ws)
    return {int(length): float(acc[length]) for length in np.unique(ls)}
