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

Every post-event state comes from
:func:`~repro.bgpsim.events.propagate_event`: one compiled propagation
per (event, origin) on the mutated graph (a hijack merges the hijacker's
propagation over the baseline).  Baselines are compiled array states,
so a runner-created cache uses the compiled kernel regardless of
``REPRO_ENGINE``.

Cache discipline: baselines are read *before* ``event.apply`` mutates the
graph; a topology-mutating event then drops every cached state
(:meth:`~repro.bgpsim.cache.RoutingStateCache.invalidate` — the
silent-staleness hazard covered by ``tests/test_event_engine.py``) and
installs the post-event states as the next event's baselines.  Seed
events (hijack, leak) are transient: the baseline topology is untouched,
so the cache is left alone.

Every (event, origin) runs in-process, in timeline order: two worker
processes made a 16-origin × 26-event timeline slower, not faster
(EXPERIMENTS.md).  The initial baseline warm-up uses the cache's
bit-parallel batched ``prefetch``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

from ..bgpsim.cache import RoutingStateCache
from ..bgpsim.events import (
    ASFailure,
    Depeer,
    Event,
    Hijack,
    LinkDown,
    LinkUp,
    RouteLeak,
    propagate_event,
)
from ..bgpsim.metrics_kernel import reliance_kernel, routed_count_kernel
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
    topology events).
    """

    step: int
    event: str
    origin: int
    reachable: int
    reliance: dict[int, float]
    hegemony: dict[int, float]
    captured: Optional[int] = None


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


def _post_event(graph: ASGraph, origin: int, baseline, applied):
    """One origin's post-event state, and for a seed event the number of
    ASes routing on the hijacker's/leaker's announcement."""
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
        return baseline, 0
    state = propagate_event(graph, baseline, applied)
    captured = None
    if isinstance(event, (Hijack, RouteLeak)):
        captured = len(state.ases_with_origin(event.key))
    return state, captured


class ScenarioRunner:
    """Replay an event timeline, one metric row per (event, origin).

    ``cache`` defaults to a fresh compiled-engine
    :class:`RoutingStateCache` over ``graph``; a caller-provided cache
    must hold compiled array states (the hijack merge requires them).

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
        shards=None,
    ) -> None:
        self.graph = graph
        self.origins = tuple(origins)
        if not self.origins:
            raise ValueError("at least one origin required")
        self.targets = tuple(targets)
        if cache is None:
            cache = RoutingStateCache(graph, engine="compiled")
        if shards is not None:
            cache.attach_shards(shards)
        self.cache = cache

    def run(self, events: Iterable[Event]) -> TimelineResult:
        """Apply ``events`` in order to the runner's graph (mutating it)
        and return the full metric series, baseline step included."""
        events = tuple(events)
        records: list[EventMetrics] = []
        self.cache.prefetch(self.origins)
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
            if applied.mutates_topology:
                self.cache.invalidate()
            for origin in self.origins:
                state, captured = _post_event(
                    self.graph, origin, baselines[origin], applied
                )
                if applied.mutates_topology:
                    self.cache.install(origin, state)
                reachable, reliance, hegemony = _metric_row(
                    state, origin, self.targets
                )
                records.append(
                    EventMetrics(
                        step,
                        event.describe(),
                        origin,
                        reachable,
                        reliance,
                        hegemony,
                        captured=captured,
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
