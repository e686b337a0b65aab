"""The process pool, and the plain serial sweeps.

Every headline analysis in the paper sweeps a propagation over many
origins on the *same* immutable :class:`~repro.topology.asgraph.ASGraph`.
The per-origin runs are independent, so :func:`graph_map` can fan them
out across a :class:`concurrent.futures.ProcessPoolExecutor`.  Only two
sweeps do, because only there do two workers measurably beat one
(EXPERIMENTS.md, "serial against two workers"): the §8 route-leak
sweeps (:mod:`repro.core.leaks`), which run one multi-seed propagation
per leaker, and the metric pass of
:func:`~repro.bgpsim.shards.precompute_metric_shards`, whose batch metric
kernel dominates its cost.  Every other all-origin sweep is a batched
bit-parallel sweep that finishes too fast for a pool to pay off, and runs
in-process: :func:`propagate_origins` and :func:`propagate_many` below,
and the per-item loops of the consumers.

Design rules of :func:`graph_map` (all load-bearing for determinism):

* **The graph ships once per worker, not once per task.**  Workers receive
  the graph and the shared kwargs through the pool *initializer* and
  stash them in module globals; each task then pickles only its item (a
  batch of origins, a leaker).  Under the default ``fork`` start method
  the workers inherit the initializer arguments; other start methods
  pickle them once per worker.
* **The compiled form ships, not the adjacency dicts.**  When the tasks
  run the compiled engine (the default), the pool ships the graph's
  compact :class:`~repro.bgpsim.compiled.CompiledGraph`, which implements
  the read-only ``ASGraph`` query API, so task functions are oblivious to
  which form they received.
* **Results come back as an ordered iterator**, in input order whatever
  the worker scheduling, so a pooled sweep is bit-for-bit the serial
  loop (``tests/test_parallel_engine.py``).
* **``workers=None``/``0``/``1`` runs serially in-process** through the
  very same task function: no pool, no pickling.
* **Worker exceptions surface in the parent**, re-raised with their
  original type where the caller consumes that result; the pool shuts
  down cleanly.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Collection, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional

from ..topology.asgraph import ASGraph
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
    _WORKER_GRAPH = graph
    _WORKER_FUNC = func
    _WORKER_SHARED = shared


def _run_task(item: Any) -> Any:
    assert _WORKER_FUNC is not None and _WORKER_GRAPH is not None
    return _WORKER_FUNC(_WORKER_GRAPH, item, **_WORKER_SHARED)


def graph_map(
    graph: ASGraph,
    func: Callable[..., Any],
    items: Iterable[Any],
    *,
    workers: int | str | None = None,
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

    def _parallel() -> Iterator[Any]:
        with ProcessPoolExecutor(
            max_workers=count,
            initializer=_init_worker,
            initargs=(payload, func, shared),
        ) as pool:
            yield from pool.map(_run_task, item_list, chunksize=chunksize)

    return _parallel()


# ---------------------------------------------------------------------------
# serial propagation sweeps
# ---------------------------------------------------------------------------

def _coerce_seeds(task: Any) -> tuple[Seed, ...]:
    if isinstance(task, Seed):
        return (task,)
    if isinstance(task, int):
        return (Seed(asn=task),)
    return tuple(s if isinstance(s, Seed) else Seed(asn=s) for s in task)


def propagate_many(
    graph: ASGraph,
    tasks: Iterable[int | Seed | Iterable[Seed]],
    *,
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
    engine: Optional[str] = None,
) -> Iterator[RoutingState]:
    """Propagate each task over ``graph``, yielding states in input order.

    A task is an origin ASN, a :class:`Seed`, or an iterable of seeds (the
    multi-seed form used by leak simulations).  ``excluded``,
    ``peer_locked``, ``locked_origin`` and ``engine`` apply to every task.
    """
    for task in tasks:
        yield propagate(
            graph,
            _coerce_seeds(task),
            excluded=excluded,
            peer_locked=peer_locked,
            locked_origin=locked_origin,
            engine=engine,
        )


def propagate_origins(
    graph: ASGraph,
    origins: Iterable[int],
    *,
    excluded: Collection[int] = frozenset(),
    engine: Optional[str] = None,
) -> Iterator[tuple[int, RoutingState]]:
    """``(origin, state)`` pairs for a plain single-origin sweep.

    On the compiled engine the origins go through the bit-parallel
    multi-origin kernel (:mod:`repro.bgpsim.multiorigin`) in
    :data:`~repro.bgpsim.multiorigin.DEFAULT_BATCH`-wide chunks, each
    costing one graph sweep instead of one per origin; the yielded
    states are per-origin views equivalent to the per-origin engines'
    results, so callers are oblivious.  The reference engine, the
    oracle, propagates each origin on its own.  An unknown ``engine``
    raises ``ValueError`` here.
    """
    from .multiorigin import batched, propagate_batch

    origin_list = list(origins)
    if resolve_engine(engine) == "reference":
        states = propagate_many(
            graph, origin_list, excluded=excluded, engine="reference"
        )
        return zip(origin_list, states)
    chunks = batched(origin_list)

    def _views() -> Iterator[tuple[int, RoutingState]]:
        for chunk in chunks:
            yield from propagate_batch(graph, chunk, excluded=excluded).views()

    return _views()
