"""Parallel per-origin route propagation.

Every headline analysis in the paper — hierarchy-free reachability (§6),
reliance (§7), route-leak resilience (§8), and the traceroute campaigns
(§4) — sweeps :func:`~repro.bgpsim.engine.propagate` over many origins on
the *same* immutable :class:`~repro.topology.asgraph.ASGraph`.  The
per-origin runs are independent, which makes the sweep embarrassingly
parallel: this module fans the calls out across a
:class:`concurrent.futures.ProcessPoolExecutor`.

Design rules (all load-bearing for determinism and throughput):

* **The graph ships once per worker, not once per task.**  Workers receive
  the graph through a pool *initializer* and stash it in a module global;
  each task then pickles only its item (an origin ASN, a seed, a leaker).
  Under the default ``fork`` start method the initializer argument is
  inherited copy-on-write, so even the one-time transfer is nearly free.
* **The compiled form ships, not the adjacency dicts.**  When the sweep
  runs the compiled engine (the default), the pool ships the graph's
  compact :class:`~repro.bgpsim.compiled.CompiledGraph` — CSR arrays,
  several times smaller pickled than the dict-of-sets ``ASGraph`` (the
  ablation benchmark records the exact factor).  ``CompiledGraph``
  implements the read-only ``ASGraph`` query API, so task functions are
  oblivious to which form they received.
* **Results come back as an ordered iterator.**  ``graph_map`` yields
  results in input order regardless of worker scheduling, so a parallel
  sweep is a drop-in replacement for the serial loop and callers stay
  bit-for-bit deterministic (the differential harness in
  ``tests/test_parallel_engine.py`` asserts exactly this).
* **``workers=None``/``0``/``1`` runs serially in-process** through the
  very same task function — no pool, no pickling, no behavioural fork
  between the two paths.
* **Worker exceptions surface in the parent.**  A task that raises inside
  a worker re-raises the original exception type at the point the caller
  consumes that result, and the pool shuts down cleanly.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Collection, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional

from ..topology.asgraph import ASGraph
from . import shm
from .engine import propagate, resolve_engine
from .routes import RoutingState, Seed

__all__ = [
    "graph_map",
    "propagate_many",
    "propagate_origins",
    "resolve_workers",
]


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers`` knob to a concrete process count.

    ``None``, ``0`` and ``1`` mean serial; ``"auto"`` and negative values
    mean one worker per available CPU.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return max(os.cpu_count() or 1, 1)
    count = int(workers)
    if count < 0:
        return max(os.cpu_count() or 1, 1)
    return max(count, 1)


# ---------------------------------------------------------------------------
# worker-side state, installed once per process by the pool initializer
# ---------------------------------------------------------------------------

_WORKER_GRAPH: Optional[ASGraph] = None
_WORKER_FUNC: Optional[Callable[..., Any]] = None
_WORKER_SHARED: dict[str, Any] = {}


def _init_worker(
    graph: ASGraph, func: Callable[..., Any], shared: dict[str, Any]
) -> None:
    global _WORKER_GRAPH, _WORKER_FUNC, _WORKER_SHARED
    # shared-memory payloads arrive as tiny refs; attach and rebuild the
    # real objects once per worker (plain payloads pass through)
    _WORKER_GRAPH = shm.restore_payload(graph)
    _WORKER_FUNC = func
    _WORKER_SHARED = {
        key: shm.restore_payload(value) for key, value in shared.items()
    }


def _run_task(item: Any) -> Any:
    assert _WORKER_FUNC is not None and _WORKER_GRAPH is not None
    return _WORKER_FUNC(_WORKER_GRAPH, item, **_WORKER_SHARED)


def graph_map(
    graph: ASGraph,
    func: Callable[..., Any],
    items: Iterable[Any],
    *,
    workers: int | str | None = None,
    chunksize: Optional[int] = None,
    **shared: Any,
) -> Iterator[Any]:
    """Apply ``func(graph, item, **shared)`` to every item, in input order.

    ``func`` must be a picklable module-level callable.  With more than one
    worker the graph and ``shared`` kwargs are installed once per worker
    process via the pool initializer and only ``item`` crosses the pipe per
    task; serially the exact same calls run inline.  Results are yielded in
    the order of ``items``; an exception raised by any task propagates to
    the caller when that task's slot is consumed.
    """
    count = resolve_workers(workers)
    if count <= 1:
        def _serial() -> Iterator[Any]:
            for item in items:
                yield func(graph, item, **shared)

        return _serial()

    item_list = list(items)
    if not item_list:
        return iter(())
    count = min(count, len(item_list))
    if chunksize is None:
        chunksize = max(1, -(-len(item_list) // (count * 8)))

    # Ship the compact compiled form when the tasks will run the compiled
    # engine anyway (an ``engine`` shared kwarg, or the session default).
    # CompiledGraph answers the same read-only queries, so the tasks are
    # oblivious; serial mode keeps the original graph (nothing is shipped).
    payload: Any = graph
    if isinstance(graph, ASGraph):
        try:
            if resolve_engine(shared.get("engine")) == "compiled":
                payload = graph.compile()
        except ValueError:
            pass  # unknown engine string: let the task raise it

    # Move the big constant arrays (the CSR graph, per-sweep baseline
    # states) into shared-memory segments: the initializer then ships
    # only tiny refs and every worker attaches the same pages instead of
    # unpickling its own copy.  A platform that fails the shared-memory
    # probe keeps the plain pickle path — still shipped once per worker
    # via the initializer, never per batch.
    arenas: list[shm.ShmArena] = []
    if shm.shm_available():
        payload = shm.share_payload(payload, arenas)
        shared = {
            key: shm.share_payload(value, arenas)
            for key, value in shared.items()
        }

    def _parallel() -> Iterator[Any]:
        try:
            with ProcessPoolExecutor(
                max_workers=count,
                initializer=_init_worker,
                initargs=(payload, func, shared),
            ) as pool:
                yield from pool.map(
                    _run_task, item_list, chunksize=chunksize
                )
        finally:
            for arena in arenas:
                arena.close()

    return _parallel()


# ---------------------------------------------------------------------------
# propagation sweeps
# ---------------------------------------------------------------------------

def _coerce_seeds(task: Any) -> tuple[Seed, ...]:
    if isinstance(task, Seed):
        return (task,)
    if isinstance(task, int):
        return (Seed(asn=task),)
    return tuple(s if isinstance(s, Seed) else Seed(asn=s) for s in task)


def _propagate_task(
    graph: ASGraph,
    task: Any,
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
    engine: Optional[str] = None,
) -> RoutingState:
    return propagate(
        graph,
        _coerce_seeds(task),
        excluded=excluded,
        peer_locked=peer_locked,
        locked_origin=locked_origin,
        engine=engine,
    )


def propagate_many(
    graph: ASGraph,
    tasks: Iterable[int | Seed | Iterable[Seed]],
    *,
    workers: int | str | None = None,
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
    chunksize: Optional[int] = None,
    engine: Optional[str] = None,
) -> Iterator[RoutingState]:
    """Propagate each task over ``graph``, yielding states in input order.

    A task is an origin ASN, a :class:`Seed`, or an iterable of seeds (the
    multi-seed form used by leak simulations).  ``excluded``,
    ``peer_locked``, ``locked_origin`` and ``engine`` apply to every task
    and ship to the workers once; with ``engine="compiled"`` (the
    default) the workers receive the compact compiled graph.
    """
    return graph_map(
        graph,
        _propagate_task,
        tasks,
        workers=workers,
        chunksize=chunksize,
        excluded=frozenset(excluded),
        peer_locked=frozenset(peer_locked),
        locked_origin=locked_origin,
        engine=engine,
    )


def _propagate_batch_task(
    graph: ASGraph,
    origins: tuple[int, ...],
    excluded: Collection[int] = frozenset(),
    engine: Optional[str] = None,
):
    """One bit-parallel sweep per batch of origins (worker-side)."""
    from .multiorigin import propagate_batch

    del engine  # the batch kernel *is* the compiled engine
    return propagate_batch(graph, origins, excluded=excluded)


def propagate_origins(
    graph: ASGraph,
    origins: Iterable[int],
    *,
    workers: int | str | None = None,
    excluded: Collection[int] = frozenset(),
    engine: Optional[str] = None,
    batch: Optional[int] = None,
) -> Iterator[tuple[int, RoutingState]]:
    """``(origin, state)`` pairs for a plain single-origin sweep.

    ``batch`` selects the bit-parallel multi-origin kernel
    (:mod:`repro.bgpsim.multiorigin`): origins are chunked to that width
    and each chunk costs one graph sweep instead of one per origin.  The
    default (``None``) resolves through ``REPRO_BATCH`` /
    :data:`~repro.bgpsim.multiorigin.DEFAULT_BATCH`; ``batch=1`` (or
    ``engine="reference"``) keeps the historical per-origin path.  The
    yielded states are per-origin views equivalent to the per-origin
    engines' results, so callers are oblivious.  Process-parallelism
    composes: with ``workers`` the chunks fan out across the pool, each
    worker running whole batches.
    """
    from .multiorigin import resolve_batch

    origin_list = list(origins)
    try:
        resolved = resolve_engine(engine)
    except ValueError:
        resolved = "reference"  # unknown engine: let propagate() raise
    width = resolve_batch(batch)
    if width > 1 and resolved == "compiled" and origin_list:
        chunks = [
            tuple(origin_list[i : i + width])
            for i in range(0, len(origin_list), width)
        ]
        batches = graph_map(
            graph,
            _propagate_batch_task,
            chunks,
            workers=workers,
            excluded=frozenset(excluded),
            engine=engine,
        )

        def _views() -> Iterator[tuple[int, RoutingState]]:
            for result in batches:
                if result._graph is None:  # returned from a pool worker
                    result.bind_graph(graph)
                # Yield view-by-view and drop each from the batch's cache
                # as soon as it is handed over: a streaming consumer that
                # releases its view after folding it frees that view's
                # materialized arrays immediately (refcount alone, no gc),
                # and the batch masks are all that stays live.  This is
                # what keeps full-origin-set sweeps at O(batch) memory.
                for bit, origin in enumerate(result.origins):
                    yield origin, result.view_at(bit)
                    result._views.pop(bit, None)

        return _views()
    states = propagate_many(
        graph, origin_list, workers=workers, excluded=excluded, engine=engine
    )
    return zip(origin_list, states)
