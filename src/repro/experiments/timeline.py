"""Event-timeline replay: per-event metric series over cached baselines.

The paper's leak experiments study one kind of disturbance; AS Hegemony
(Fontugne et al.) tracks the same dependency metrics as *time series*
across link failures, depeerings and hijacks.  This module replays a
timeline of :mod:`repro.bgpsim.events` against per-origin baselines held
in a :class:`~repro.bgpsim.cache.RoutingStateCache`, emitting one
:class:`EventMetrics` row per (event, origin): reachability
(:func:`~repro.bgpsim.metrics_kernel.routed_count_kernel`), reliance on
each chosen target, local hegemony toward each target, and — for seed
events — the number of ASes captured by the hijacker/leaker.

Engine semantics: the ``engine`` knob (``REPRO_ENGINE``) selects *how*
each post-event state is derived — ``"compiled"`` (the default) applies
the event's delta to the cached baseline via
:func:`~repro.bgpsim.events.propagate_delta_event`, which itself falls
back to a full recompute past its withdrawal threshold; ``"reference"``
always recomputes in full on the mutated graph via
:func:`~repro.bgpsim.events.full_event_outcome`.  Both paths produce
bit-identical metric floats (``tests/test_event_engine.py``).  Baselines
are always compiled array states (the delta pass requires them and the
metric kernels are fastest on them), so a runner-created cache uses the
compiled kernel regardless of the engine knob.

Cache discipline: baselines are read *before* ``event.apply`` mutates the
graph; a topology-mutating event then drops every cached state
(:meth:`~repro.bgpsim.cache.RoutingStateCache.invalidate` — the
silent-staleness hazard covered by ``tests/test_event_engine.py``) and
installs the post-event states as the next event's baselines.  Seed
events (hijack, leak) are transient: the baseline topology is untouched,
so the cache is left alone.

Per-origin work fans out through
:func:`~repro.bgpsim.parallel.graph_map` (``workers``), and the initial
baseline warm-up uses the cache's bit-parallel batched ``prefetch``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

from ..bgpsim.cache import RoutingStateCache
from ..bgpsim.engine import resolve_engine
from ..bgpsim.events import (
    ASFailure,
    Depeer,
    Event,
    Hijack,
    LinkDown,
    LinkUp,
    RouteLeak,
    full_event_outcome,
    propagate_delta_event,
)
from ..bgpsim.metrics_kernel import reliance_kernel, routed_count_kernel
from ..bgpsim.parallel import graph_map
from ..bgpsim.routes import RoutingState
from ..core.hegemony import TRIM, path_cross_fractions, trimmed_mean
from ..topology.asgraph import ASGraph

__all__ = [
    "EventMetrics",
    "ScenarioRunner",
    "TimelineResult",
    "parse_events",
]


@dataclass(frozen=True)
class EventMetrics:
    """One (event, origin) row of a timeline's metric series.

    ``step`` 0 is the pre-timeline baseline (``event == "baseline"``);
    steps 1..n follow the event sequence.  ``captured`` counts the ASes
    routing on the hijacker's/leaker's announcement (``None`` for
    topology events); ``visited_fraction``/``fallback`` expose the delta
    pass's instrumentation (0.0/False on the full-recompute path for
    topology and leak events, which do not track a frontier).
    """

    step: int
    event: str
    origin: int
    reachable: int
    reliance: dict[int, float]
    hegemony: dict[int, float]
    captured: Optional[int] = None
    visited_fraction: float = 0.0
    fallback: bool = False


@dataclass(frozen=True)
class TimelineResult:
    """All metric rows of one replayed timeline, ordered (step, origin)."""

    origins: tuple[int, ...]
    targets: tuple[int, ...]
    events: tuple[str, ...]
    records: tuple[EventMetrics, ...]

    def series(self, origin: int) -> tuple[EventMetrics, ...]:
        """One origin's rows across every step, baseline first."""
        return tuple(r for r in self.records if r.origin == origin)

    def record(self, step: int, origin: int) -> EventMetrics:
        for r in self.records:
            if r.step == step and r.origin == origin:
                return r
        raise KeyError(f"no record for step {step}, origin AS{origin}")


def _metric_row(
    state: RoutingState, origin: int, targets: Sequence[int]
) -> tuple[int, dict[int, float], dict[int, float]]:
    """(reachable, reliance-per-target, hegemony-per-target) of a state."""
    reachable = routed_count_kernel(state)
    reliance: dict[int, float] = {}
    hegemony: dict[int, float] = {}
    if targets:
        full = reliance_kernel(state)
        for target in targets:
            reliance[target] = full.get(target, 0.0)
            fractions = path_cross_fractions(state, target)
            samples = [
                value
                for asn, value in fractions.items()
                if asn not in (origin, target)
            ]
            hegemony[target] = trimmed_mean(samples, TRIM)
    return reachable, reliance, hegemony


def _event_task(
    graph: ASGraph,
    origin: int,
    *,
    applied=None,
    baselines=None,
    targets: tuple[int, ...] = (),
    delta: bool = True,
    threshold: Optional[float] = None,
):
    """One origin's post-event outcome + metric row (module-level so
    ``graph_map`` can ship it to worker processes; ``applied``/
    ``baselines`` ride along as per-worker shared state)."""
    baseline = baselines[origin]
    event = applied.event
    if (
        (isinstance(event, Hijack) and event.hijacker == origin)
        or (
            isinstance(event, RouteLeak)
            and (
                event.leaker == origin
                or (
                    event.initial_length is None
                    and baseline.path_length(event.leaker) is None
                )
            )
        )
    ):
        # per-prefix no-ops: an AS "hijacking"/"leaking" the prefix it
        # legitimately originates, or re-announcing a route it never had
        row = _metric_row(baseline, origin, targets)
        return (origin, None, row, 0, 0.0, False)
    if delta:
        outcome = propagate_delta_event(
            graph, baseline, applied, threshold=threshold
        )
    else:
        outcome = full_event_outcome(graph, baseline, applied)
    state = outcome.state
    captured = None
    if isinstance(event, (Hijack, RouteLeak)):
        captured = len(state.ases_with_origin(event.key))
    row = _metric_row(state, origin, targets)
    # seed-event states are transient (never re-installed as baselines),
    # so skip shipping them back over the worker pipe
    return (
        origin,
        state if applied.mutates_topology else None,
        row,
        captured,
        outcome.visited_fraction,
        outcome.fallback,
    )


class ScenarioRunner:
    """Replay an event timeline, one metric row per (event, origin).

    ``cache`` defaults to a fresh compiled-engine
    :class:`RoutingStateCache` over ``graph``; a caller-provided cache
    must hold compiled array states (the delta pass and seed-event
    merges require them).  ``engine`` picks delta vs full recompute (see
    the module docstring), ``workers`` fans per-origin work across
    processes, ``batch`` sets the bit-parallel prefetch width, and
    ``threshold`` caps the delta pass's withdrawal region
    (:func:`~repro.bgpsim.events.resolve_event_threshold`).

    ``shards`` attaches a precomputed
    :class:`~repro.bgpsim.shards.ShardStore` as the cache's disk tier:
    the step-0 baselines come from mmap instead of propagation, and the
    digest re-check inside the cache keeps mutated topologies off the
    disk tier (re-enabling it when an inverse event restores the graph).
    """

    def __init__(
        self,
        graph: ASGraph,
        origins: Iterable[int],
        targets: Iterable[int] = (),
        cache: Optional[RoutingStateCache] = None,
        engine: Optional[str] = None,
        workers: int | str | None = None,
        batch: Optional[int] = None,
        threshold: Optional[float] = None,
        shards=None,
    ) -> None:
        self.graph = graph
        self.origins = tuple(origins)
        if not self.origins:
            raise ValueError("at least one origin required")
        self.targets = tuple(targets)
        self.engine = resolve_engine(engine)
        self.workers = workers
        self.batch = batch
        self.threshold = threshold
        if cache is None:
            cache = RoutingStateCache(graph, engine="compiled", batch=batch)
        if shards is not None:
            cache.attach_shards(shards)
        self.cache = cache

    def run(self, events: Iterable[Event]) -> TimelineResult:
        """Apply ``events`` in order to the runner's graph (mutating it)
        and return the full metric series, baseline step included."""
        events = tuple(events)
        delta = self.engine == "compiled"
        records: list[EventMetrics] = []
        self.cache.prefetch(
            self.origins, workers=self.workers, batch=self.batch
        )
        for origin in self.origins:
            state = self.cache.state_for(origin)
            reachable, reliance, hegemony = _metric_row(
                state, origin, self.targets
            )
            records.append(
                EventMetrics(0, "baseline", origin, reachable, reliance, hegemony)
            )
        for step, event in enumerate(events, 1):
            # baselines must predate the mutation — apply() changes graph
            baselines = {o: self.cache.state_for(o) for o in self.origins}
            applied = event.apply(self.graph)
            rows = list(
                graph_map(
                    self.graph,
                    _event_task,
                    self.origins,
                    workers=self.workers,
                    applied=applied,
                    baselines=baselines,
                    targets=self.targets,
                    delta=delta,
                    threshold=self.threshold,
                )
            )
            if applied.mutates_topology:
                self.cache.invalidate()
            for origin, state, row, captured, visited_fraction, fallback in rows:
                if state is not None:
                    self.cache.install(origin, state)
                reachable, reliance, hegemony = row
                records.append(
                    EventMetrics(
                        step,
                        event.describe(),
                        origin,
                        reachable,
                        reliance,
                        hegemony,
                        captured=captured,
                        visited_fraction=visited_fraction,
                        fallback=fallback,
                    )
                )
        return TimelineResult(
            self.origins,
            self.targets,
            tuple(event.describe() for event in events),
            tuple(records),
        )


def _parse_pair(text: str, token: str) -> tuple[int, int]:
    a, _, b = text.partition("-")
    if not b:
        raise ValueError(f"expected 'A-B' AS pair in {token!r}")
    return int(a), int(b)


def parse_events(spec: str) -> tuple[Event, ...]:
    """Parse a compact CLI timeline spec into events.

    Comma-separated tokens: ``down:A-B`` (remove any link),
    ``up:A-B[:p2p|p2c]`` (add a link, ``A`` the provider for p2c;
    default p2p), ``depeer:A-B``, ``fail:A`` (AS outage),
    ``hijack:A``, ``leak:A[:LEN]`` (re-announce by default, explicit
    initial length otherwise) — e.g.
    ``"down:11-100,hijack:301,up:11-100:p2c"``.
    """
    events: list[Event] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, rest = token.partition(":")
        parts = rest.split(":") if rest else []
        try:
            if kind == "down" and len(parts) == 1:
                events.append(LinkDown(*_parse_pair(parts[0], token)))
            elif kind == "up" and len(parts) in (1, 2):
                a, b = _parse_pair(parts[0], token)
                rel = parts[1] if len(parts) == 2 else "p2p"
                events.append(LinkUp(a, b, relationship=rel))
            elif kind == "depeer" and len(parts) == 1:
                events.append(Depeer(*_parse_pair(parts[0], token)))
            elif kind == "fail" and len(parts) == 1:
                events.append(ASFailure(int(parts[0])))
            elif kind == "hijack" and len(parts) == 1:
                events.append(Hijack(int(parts[0])))
            elif kind == "leak" and len(parts) in (1, 2):
                length = int(parts[1]) if len(parts) == 2 else None
                events.append(RouteLeak(int(parts[0]), initial_length=length))
            else:
                raise ValueError(
                    f"unknown or malformed event {token!r}; expected "
                    "down:A-B, up:A-B[:rel], depeer:A-B, fail:A, "
                    "hijack:A or leak:A[:LEN]"
                )
        except ValueError as exc:
            if "unknown or malformed" in str(exc):
                raise
            raise ValueError(f"bad event token {token!r}: {exc}") from exc
    if not events:
        raise ValueError(f"no events in timeline spec {spec!r}")
    return tuple(events)
