"""Differential event-conformance harness: the one event path ≡ the oracle.

:func:`repro.bgpsim.events.propagate_event` derives each post-event
routing state with one compiled propagation on the mutated graph (a
hijack merges the hijacker's propagation over the baseline).  This module
checks it against the reference engine, ``propagate_reference`` on the
same mutated graph, for every event type (``LinkDown``, ``LinkUp``,
``Depeer``, ``ASFailure``, ``ASRecover``, ``Hijack``, ``RouteLeak``) on
3 netgen seeds × 2 sizes.  The graph's compiled CSR arrays are patched
from its dirty-row log after each mutation, so the comparison covers
the patching too:

* **state level** — the post-event state equals the oracle's (full
  tied-best equivalence class: route class, length, parent sets,
  origins);
* **metric level** — the metric kernels on the post-event state produce
  the same floats as the dict metrics on the oracle's state;
* **regression level** — hand-computed minimal graphs where a
  ``LinkDown`` severing a provider must withdraw exactly the
  customer-cone routes that transited it (and re-converge the survivors
  through peers);
* **timeline level** — ``ScenarioRunner`` emits the metric rows of a
  replay on the reference engine and the dict metrics, with baselines
  propagated or read off a shard corpus, and drops cached baselines on
  every topology-mutating event (``baseline_invalidations``).

Hijacks are checked against an *independent* merge of two reference
propagations rather than the engine's own merge.
"""

from __future__ import annotations

import random

import pytest

from .conftest import (
    assert_states_equal,
    build_mini,
    netgen_graph,
    sample_origins,
)
from repro.bgpsim import (
    ASFailure,
    ASRecover,
    CompiledRoutingState,
    Depeer,
    Hijack,
    LinkDown,
    LinkUp,
    RouteLeak,
    RoutingStateCache,
    Seed,
    cross_fractions_kernel,
    length_histogram_kernel,
    propagate_compiled,
    propagate_event,
    propagate_reference,
    reliance_kernel,
    routed_count_kernel,
)
from repro.bgpsim.routes import RoutingState
from repro.core.hegemony import TRIM, path_cross_fractions, trimmed_mean
from repro.core.pathlen import path_length_histogram
from repro.core.reliance import _reliance_from_routes
from repro.experiments.timeline import ScenarioRunner, parse_events
from repro.topology import ASGraph

#: (profile, scenario seed) — ≥3 seeds × 2 sizes, per the acceptance bar.
SCENARIOS = [
    ("tiny", 20200901),
    ("tiny", 7),
    ("tiny", 8),
    ("small", 20200901),
    ("small", 7),
    ("small", 8),
]


def _oracle(graph, origin, event):
    """``origin``'s post-event state from the reference engine alone.

    ``graph`` is already mutated.  A hijack is the independent merge of
    two reference propagations: the hijacker's route wins at every AS it
    reaches except the legitimate origin."""
    legit = Seed(asn=origin)
    if isinstance(event, Hijack):
        hseed = Seed(asn=event.hijacker, key=event.key)
        base = propagate_reference(graph, legit)
        hijack = propagate_reference(graph, hseed)
        merged = RoutingState((legit, hseed))
        merged.routes = dict(base.routes)
        merged.routes.update(
            (asn, route) for asn, route in hijack.routes.items()
            if asn != origin
        )
        return merged
    if isinstance(event, RouteLeak):
        length = event.initial_length
        if length is None:
            length = propagate_reference(graph, legit).path_length(
                event.leaker
            )
        leak = Seed(asn=event.leaker, key=event.key, initial_length=length)
        return propagate_reference(graph, (legit, leak))
    return propagate_reference(graph, legit)


def _check_topology_event(graph, origins, event, context):
    """Apply ``event``; assert the post-event state ≡ the oracle for
    every origin.  The graph is left in its post-event form."""
    baselines = {
        origin: propagate_compiled(graph, Seed(asn=origin))
        for origin in origins
    }
    applied = event.apply(graph)
    for origin, baseline in baselines.items():
        assert_states_equal(
            propagate_event(graph, baseline, applied),
            _oracle(graph, origin, event),
            f"{context}, {event.describe()}, AS{origin}",
        )
    return applied


def _assert_metrics_identical(state, oracle, targets, context):
    """The metric kernels on ``state`` must produce the dict metrics'
    floats on the oracle (``==`` on dicts, no tolerance)."""
    assert routed_count_kernel(state) == len(oracle.reachable_ases())
    assert reliance_kernel(state) == _reliance_from_routes(oracle), context
    assert length_histogram_kernel(state) == path_length_histogram(
        oracle
    ), context
    for target in targets:
        assert cross_fractions_kernel(state, target) == (
            path_cross_fractions(oracle, target)
        ), f"{context}, target AS{target}"


# ---------------------------------------------------------------------------
# per-event-type differential, netgen scenarios
# ---------------------------------------------------------------------------

class TestEventDifferential:
    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_linkdown(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 1)
        origins = sample_origins(graph, 3, seed=seed)
        for trial in range(6):
            edges = sorted(
                (a, b)
                for a in graph.nodes()
                for b in graph.customers(a) | graph.peers(a)
                if a < b or b in graph.customers(a)
            )
            a, b = edges[rng.randrange(len(edges))]
            applied = _check_topology_event(
                graph, origins, LinkDown(a, b), f"{profile}/{seed} t{trial}"
            )
            applied.inverse.apply(graph)  # restore for the next trial

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_linkup(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 2)
        nodes = sorted(graph.nodes())
        origins = sample_origins(graph, 3, seed=seed)
        added = 0
        while added < 6:
            a, b = rng.sample(nodes, 2)
            if graph.relationship_between(a, b) is not None:
                continue
            rel = "p2p" if added % 2 else "p2c"
            applied = _check_topology_event(
                graph,
                origins,
                LinkUp(a, b, relationship=rel),
                f"{profile}/{seed} add{added}",
            )
            applied.inverse.apply(graph)
            added += 1

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_depeer(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 3)
        peerings = sorted(
            (a, b) for a in graph.nodes() for b in graph.peers(a) if a < b
        )
        origins = sample_origins(graph, 3, seed=seed)
        for trial in range(4):
            a, b = peerings[rng.randrange(len(peerings))]
            applied = _check_topology_event(
                graph, origins, Depeer(a, b), f"{profile}/{seed} t{trial}"
            )
            applied.inverse.apply(graph)

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_asfailure_and_recover(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 4)
        # fail high-degree transit nodes (the hard case) and random ones
        by_degree = sorted(
            graph.nodes(), key=lambda a: -len(graph.customers(a))
        )
        origins = sample_origins(graph, 3, seed=seed)
        picks = by_degree[1:3] + rng.sample(sorted(graph.nodes()), 2)
        for victim in picks:
            if victim in origins:
                continue
            applied = _check_topology_event(
                graph, origins, ASFailure(victim), f"{profile}/{seed}"
            )
            recover = applied.inverse
            assert isinstance(recover, ASRecover)
            # the recovery (pure addition of every incident edge) must
            # also match the oracle, and restore the graph
            _check_topology_event(
                graph, origins, recover, f"{profile}/{seed} recover"
            )

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_hijack_vs_independent_merge(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 5)
        nodes = sorted(graph.nodes())
        for trial in range(4):
            origin, hijacker = rng.sample(nodes, 2)
            baseline = propagate_compiled(graph, Seed(asn=origin))
            event = Hijack(hijacker)
            applied = event.apply(graph)
            state = propagate_event(graph, baseline, applied)
            hijack = propagate_reference(
                graph, Seed(asn=hijacker, key="hijack")
            )
            stolen = frozenset(hijack.routes) - {origin}
            assert state.ases_with_origin("hijack") == stolen
            assert_states_equal(
                state,
                _oracle(graph, origin, event),
                f"{profile}/{seed} t{trial}",
            )

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_routeleak(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 6)
        nodes = sorted(graph.nodes())
        for trial in range(4):
            origin, leaker = rng.sample(nodes, 2)
            baseline = propagate_compiled(graph, Seed(asn=origin))
            length = baseline.path_length(leaker)
            event = RouteLeak(leaker) if length is not None else RouteLeak(
                leaker, initial_length=0
            )
            applied = event.apply(graph)
            assert_states_equal(
                propagate_event(graph, baseline, applied),
                _oracle(graph, origin, event),
                f"{profile}/{seed} t{trial}",
            )

    @pytest.mark.parametrize("profile,seed", SCENARIOS[:3])
    def test_metric_kernels_bit_identical(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 7)
        nodes = sorted(graph.nodes())
        [origin] = sample_origins(graph, 1, seed=seed)
        targets = rng.sample(nodes, 3)
        by_degree = sorted(
            graph.nodes(), key=lambda a: -len(graph.customers(a))
        )
        events = [
            LinkDown(by_degree[0], sorted(graph.customers(by_degree[0]))[0]),
            ASFailure(by_degree[2]),
            Hijack(nodes[5] if nodes[5] != origin else nodes[6]),
            RouteLeak(nodes[9] if nodes[9] != origin else nodes[10], 0),
        ]
        for event in events:
            baseline = propagate_compiled(graph, Seed(asn=origin))
            applied = event.apply(graph)
            _assert_metrics_identical(
                propagate_event(graph, baseline, applied),
                _oracle(graph, origin, event),
                targets,
                f"{profile}/{seed}, {event.describe()}",
            )
            if applied.inverse is not None:
                applied.inverse.apply(graph)


# ---------------------------------------------------------------------------
# retraction regression: exact expected route sets on hand graphs
# ---------------------------------------------------------------------------

def _routes_of(state):
    """{asn: (route_class int, length, parent set)} minus the seeds."""
    return {
        asn: (int(r.route_class), r.length, set(r.parents))
        for asn, r in state.routes.items()
        if asn not in state.seed_asns
    }


class TestRetractionRegression:
    def test_severed_sole_provider_withdraws_everything(self):
        graph, _ = build_mini()
        baseline = propagate_compiled(graph, Seed(asn=301))
        assert len(baseline.routes) == 10  # everyone routed
        applied = LinkDown(12, 301).apply(graph)
        state = propagate_event(graph, baseline, applied)
        assert _routes_of(state) == {}  # total withdrawal
        assert routed_count_kernel(state) == 0

    def test_severed_transit_withdraws_exactly_the_cone_that_used_it(self):
        # CLOUD (AS100) buys transit from AS11 only; severing 11—100 must
        # withdraw exactly the routes that transited AS11 (AS11 itself,
        # its provider AS1, and AS1's customer AS203) while every
        # peer-learned route survives untouched.
        graph, _ = build_mini()
        baseline = propagate_compiled(graph, Seed(asn=100))
        applied = LinkDown(11, 100).apply(graph)
        state = propagate_event(graph, baseline, applied)
        assert _routes_of(state) == {
            2: (1, 1, {100}),
            12: (1, 1, {100}),
            201: (1, 1, {100}),
            202: (1, 1, {100}),
            301: (2, 2, {12}),
            204: (2, 2, {201}),
        }

    def test_withdrawal_reconverges_through_peer_detour(self):
        # chain 1→2→3→4 with an alternate provider 5→3 and peering 1—5:
        # severing 2—3 rolls AS1 onto a peer route through AS5 and AS2
        # onto a provider route through AS1 — withdrawal plus exact
        # re-convergence, not just deletion.
        graph = ASGraph()
        graph.add_p2c(1, 2)
        graph.add_p2c(2, 3)
        graph.add_p2c(3, 4)
        graph.add_p2c(5, 3)
        graph.add_p2p(1, 5)
        baseline = propagate_compiled(graph, Seed(asn=4))
        assert _routes_of(baseline) == {
            3: (0, 1, {4}),
            2: (0, 2, {3}),
            5: (0, 2, {3}),
            1: (0, 3, {2}),
        }
        applied = LinkDown(2, 3).apply(graph)
        state = propagate_event(graph, baseline, applied)
        assert _routes_of(state) == {
            3: (0, 1, {4}),
            5: (0, 2, {3}),
            1: (1, 3, {5}),
            2: (2, 4, {1}),
        }


# ---------------------------------------------------------------------------
# timeline runner: the oracle's rows, worker equivalence, cache invalidation
# ---------------------------------------------------------------------------

def _mini_timeline():
    return parse_events(
        "down:11-100,hijack:301,up:11-100:p2c,leak:201,fail:12,depeer:100-2"
    )


def _oracle_rows(graph, origins, targets, events):
    """``ScenarioRunner``'s rows from the reference engine and the dict
    metrics alone: (step, event, origin, reachable, reliance, hegemony,
    captured).  Mutates ``graph``."""

    def row(step, label, origin, state, captured):
        reliance = _reliance_from_routes(state)
        hegemony = {}
        for target in targets:
            fractions = path_cross_fractions(state, target)
            hegemony[target] = trimmed_mean(
                [v for a, v in fractions.items() if a not in (origin, target)],
                TRIM,
            )
        return (
            step, label, origin, len(state.reachable_ases()),
            {t: reliance.get(t, 0.0) for t in targets}, hegemony, captured,
        )

    rows = [
        row(0, "baseline", o, propagate_reference(graph, Seed(asn=o)), None)
        for o in origins
    ]
    for step, event in enumerate(events, 1):
        before = {o: propagate_reference(graph, Seed(asn=o)) for o in origins}
        event.apply(graph)
        for origin in origins:
            seed_event = isinstance(event, (Hijack, RouteLeak))
            actor = getattr(event, "hijacker", getattr(event, "leaker", None))
            if seed_event and (
                actor == origin
                or (
                    isinstance(event, RouteLeak)
                    and event.initial_length is None
                    and before[origin].path_length(actor) is None
                )
            ):
                rows.append(
                    row(step, event.describe(), origin, before[origin], 0)
                )
                continue
            state = _oracle(graph, origin, event)
            captured = (
                len(state.ases_with_origin(event.key)) if seed_event else None
            )
            rows.append(row(step, event.describe(), origin, state, captured))
    return rows


def _rows(result):
    return [
        (r.step, r.event, r.origin, r.reachable, r.reliance, r.hegemony,
         r.captured)
        for r in result.records
    ]


class TestScenarioRunner:
    def test_rows_identical_across_engines(self):
        # the runner (compiled states, metric kernels) against a replay
        # on the reference engine with the dict metrics
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100, 301], targets=[11, 12])
        got = _rows(runner.run(_mini_timeline()))
        oracle_graph, _ = build_mini()
        assert got == _oracle_rows(
            oracle_graph, [100, 301], [11, 12], _mini_timeline()
        )

    def test_shard_backed_baselines(self, tmp_path):
        # step-0 baselines come off a shard corpus (memoryview arrays on
        # the map): every leak, hijack and link event answers as with
        # propagated baselines
        from repro.bgpsim import ShardStore, precompute_shards

        graph = netgen_graph("tiny")
        target = precompute_shards(graph, tmp_path)
        nodes = sorted(graph.nodes())
        origins, leakers = nodes[:4], nodes[4:10]
        stub = next(a for a in nodes[10:] if graph.is_stub(a))
        spec = ",".join(
            [f"leak:{leaker}" for leaker in leakers]
            + [f"hijack:{nodes[11]}",
               f"down:{min(graph.providers(stub))}-{stub}"]
        )
        propagated = ScenarioRunner(
            graph.copy(), origins, targets=nodes[:2]
        ).run(parse_events(spec))
        with ShardStore.open(target, graph=graph) as store:
            runner = ScenarioRunner(
                graph.copy(), origins, targets=nodes[:2], shards=store
            )
            from_disk = runner.run(parse_events(spec))
            assert runner.cache.stats().disk_hits == len(origins)
        assert any(r.captured for r in from_disk.records)
        assert from_disk == propagated

    @pytest.mark.parametrize("engine", ("compiled", "reference"))
    def test_topology_events_invalidate_baselines(self, engine, monkeypatch):
        # the runner's cache discipline holds whatever REPRO_ENGINE names
        monkeypatch.setenv("REPRO_ENGINE", engine)
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100])
        runner.run(_mini_timeline())
        stats = runner.cache.stats()
        # 4 of the 6 timeline events mutate topology
        assert stats.baseline_invalidations == 4

    def test_seed_events_leave_cache_alone(self):
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100])
        before_state = runner.cache.state_for(100)
        runner.run(parse_events("hijack:301,leak:201"))
        assert runner.cache.stats().baseline_invalidations == 0
        assert runner.cache.state_for(100) is before_state

    @pytest.mark.parametrize("engine", ("compiled", "reference"))
    def test_installed_baselines_are_fresh(self, engine, monkeypatch):
        # after a topology event the cache must serve post-event states:
        # compiled array states (whatever REPRO_ENGINE names) identical
        # to a from-scratch propagation on the mutated graph
        monkeypatch.setenv("REPRO_ENGINE", engine)
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100, 301])
        runner.run(parse_events("down:11-100"))
        for origin in (100, 301):
            cached = runner.cache.state_for(origin)
            assert isinstance(cached, CompiledRoutingState), origin
            fresh = propagate_reference(graph, Seed(asn=origin))
            assert_states_equal(cached, fresh, f"post-event cache AS{origin}")

    def test_stale_cache_would_differ(self):
        # the hazard the invalidation hook exists for: a pre-event state
        # served after the mutation is actually wrong
        graph, _ = build_mini()
        cache = RoutingStateCache(graph, engine="compiled")
        stale = cache.state_for(100)
        LinkDown(11, 100).apply(graph)
        fresh = propagate_compiled(graph, Seed(asn=100))
        assert stale.routes.keys() != fresh.routes.keys()

    def test_chained_deltas_stay_conformant(self):
        # each event's post-event state becomes the next event's
        # baseline; after the whole timeline the cache still matches a
        # from-scratch propagation of the final topology
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100])
        runner.run(_mini_timeline())
        cached = runner.cache.state_for(100)
        fresh = propagate_reference(graph, Seed(asn=100))
        assert_states_equal(cached, fresh, "chained timeline")

    def test_self_events_are_noops(self):
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100])
        result = runner.run(parse_events("hijack:100,leak:100"))
        base = result.record(0, 100)
        for step in (1, 2):
            record = result.record(step, 100)
            assert record.reachable == base.reachable
            assert record.captured == 0

    def test_parse_events_rejects_malformed(self):
        with pytest.raises(ValueError, match="unknown or malformed"):
            parse_events("explode:1-2")
        with pytest.raises(ValueError, match="bad event token"):
            parse_events("down:1")
        with pytest.raises(ValueError, match="no events"):
            parse_events(" , ")

    @pytest.mark.parametrize("profile,seed", [("tiny", 20200901)])
    def test_netgen_timeline_engine_equivalence(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        origins = sample_origins(graph, 3, seed=seed)
        by_degree = sorted(
            graph.nodes(), key=lambda a: -len(graph.customers(a))
        )
        hub = by_degree[0]
        victim = sorted(graph.customers(by_degree[1]))[0]
        spec = (
            f"down:{hub}-{sorted(graph.customers(hub))[0]},"
            f"fail:{victim},hijack:{by_degree[3]},leak:{by_degree[4]}"
        )
        runner = ScenarioRunner(graph, origins, targets=by_degree[:2])
        got = _rows(runner.run(parse_events(spec)))
        assert got == _oracle_rows(
            netgen_graph(profile, seed=seed), origins, by_degree[:2],
            parse_events(spec),
        )
