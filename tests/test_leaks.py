"""Unit tests for route-leak resilience simulation (§8).

``TestSweepEquivalence`` is the leak sweeps' differential harness: the
compiled sweeps, which propagate one baseline per ``(origin, locks)``
group and hand each leaker its re-announce length, must reproduce the
reference engine's per-leaker :func:`simulate_leak` — two full
propagations per leaker — outcome for outcome, across every
``LEAK_CONFIGURATIONS`` × :class:`LeakMode` × :class:`PeerLockSemantics`
combination, for peer-locked leakers (whose own baseline has them
unlocked), across worker processes, and through
``average_resilience_curve`` and ``lock_coverage_sweep``.  Set
``REPRO_TEST_WORKERS`` to change the parallel worker count (CI runs the
harness at 2).
"""

import os
import random

import pytest

from repro.bgpsim import LeakMode, leak_seed
from repro.core import (
    LEAK_CONFIGURATIONS,
    PeerLockSemantics,
    average_resilience_curve,
    cdf_points,
    configuration_seed_and_locks,
    fraction_at_most,
    lock_coverage_sweep,
    resilience_curve,
    simulate_leak,
    simulate_leaks,
)
from repro.netgen import build_scenario, profile
from repro.topology.tiers import infer_tiers

from .conftest import (
    CLOUD,
    CONTENT,
    E3,
    T1B,
    T2B,
    netgen_graph,
    sample_origins,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))

#: the lock configurations, whose lock-set members leak with a baseline
#: of their own
LOCK_CONFIGURATIONS = tuple(c for c in LEAK_CONFIGURATIONS if "lock" in c)


class TestSimulateLeak:
    def test_content_leak_detours_hierarchy(self, mini_graph):
        outcome = simulate_leak(mini_graph, CLOUD, CONTENT)
        # AS12 prefers the leaked customer route; AS2's only customer route
        # comes from AS12, so both are detoured (hand-computed).
        assert outcome.detoured == {T2B, T1B}
        assert outcome.total_ases == 10
        assert outcome.fraction_detoured == pytest.approx(2 / 8)

    def test_distant_stub_leak_is_harmless(self, mini_graph):
        outcome = simulate_leak(mini_graph, CLOUD, E3)
        assert outcome.detoured == frozenset()
        assert outcome.fraction_detoured == 0.0

    def test_peer_locking_stops_content_leak(self, mini_graph, mini_tiers):
        seed, locks = configuration_seed_and_locks(
            mini_graph, CLOUD, mini_tiers, "announce_all_t1t2_lock"
        )
        outcome = simulate_leak(mini_graph, seed, CONTENT, peer_locked=locks)
        assert outcome.detoured == frozenset()

    def test_global_lock_virtually_immunizes(self, mini_graph, mini_tiers):
        # Global locking confines the leak's effect to ASes whose only
        # legitimate paths already traverse the leaker (worst-case
        # accounting); it never makes any leak worse.
        seed, locks = configuration_seed_and_locks(
            mini_graph, CLOUD, mini_tiers, "announce_all_global_lock"
        )
        for leaker in mini_graph.nodes():
            if leaker == CLOUD:
                continue
            locked = simulate_leak(mini_graph, seed, leaker, peer_locked=locks)
            unlocked = simulate_leak(mini_graph, CLOUD, leaker)
            if locked is None:
                continue
            assert locked.detoured <= unlocked.detoured

    def test_global_lock_specific_outcomes(self, mini_graph, mini_tiers):
        seed, locks = configuration_seed_and_locks(
            mini_graph, CLOUD, mini_tiers, "announce_all_global_lock"
        )
        # The content AS's leak dies at its locked provider AS12.
        outcome = simulate_leak(mini_graph, seed, CONTENT, peer_locked=locks)
        assert outcome.detoured == frozenset()
        # A stub's leak to its unlocked Tier-1 provider loses on length.
        outcome = simulate_leak(mini_graph, seed, E3, peer_locked=locks)
        assert outcome.detoured == frozenset()

    def test_hijack_mode_needs_no_route(self, mini_graph):
        g = mini_graph.copy()
        g.add_as(999)  # disconnected AS cannot re-announce but can hijack
        assert simulate_leak(g, CLOUD, 999) is None
        outcome = simulate_leak(g, CLOUD, 999, mode=LeakMode.HIJACK)
        assert outcome is not None
        assert outcome.detoured == frozenset()  # no neighbors to leak to

    def test_hijack_detours_more_than_reannounce(self, mini_graph):
        leak = simulate_leak(mini_graph, CLOUD, CONTENT)
        hijack = simulate_leak(mini_graph, CLOUD, CONTENT, mode=LeakMode.HIJACK)
        assert leak.detoured <= hijack.detoured

    def test_invalid_leaker_rejected(self, mini_graph):
        with pytest.raises(ValueError):
            simulate_leak(mini_graph, CLOUD, CLOUD)
        with pytest.raises(ValueError):
            simulate_leak(mini_graph, CLOUD, 8888)

    def test_users_weighting(self, mini_graph):
        outcome = simulate_leak(mini_graph, CLOUD, CONTENT)
        users = {T2B: 50, T1B: 30, E3: 20}
        assert outcome.fraction_users_detoured(users) == pytest.approx(0.8)
        assert outcome.fraction_users_detoured({E3: 7}) == 0.0
        assert outcome.fraction_users_detoured({}) == 0.0

    def test_announce_hierarchy_only_weakens_resilience(self, mini, mini_tiers):
        graph, tiers = mini
        # When the cloud announces only to the hierarchy, its direct peer
        # routes vanish and the content leak captures strictly more ASes.
        seed, _ = configuration_seed_and_locks(
            graph, CLOUD, tiers, "announce_hierarchy_only"
        )
        restricted = simulate_leak(graph, seed, CONTENT)
        baseline = simulate_leak(graph, CLOUD, CONTENT)
        assert baseline.detoured < restricted.detoured


class TestSemanticsAblation:
    def test_erratum_filters_at_least_as_much_as_original(self, mini, mini_tiers):
        graph, tiers = mini
        seed, locks = configuration_seed_and_locks(
            graph, CLOUD, tiers, "announce_all_t1t2_lock"
        )
        for leaker in graph.nodes():
            if leaker == CLOUD:
                continue
            erratum = simulate_leak(
                graph, seed, leaker, peer_locked=locks,
                semantics=PeerLockSemantics.ERRATUM,
            )
            original = simulate_leak(
                graph, seed, leaker, peer_locked=locks,
                semantics=PeerLockSemantics.ORIGINAL,
            )
            if erratum is None or original is None:
                continue
            assert erratum.detoured <= original.detoured


class TestCurves:
    def test_resilience_curve_sorted(self, mini, mini_tiers):
        graph, tiers = mini
        leakers = [a for a in graph.nodes() if a != CLOUD]
        for configuration in LEAK_CONFIGURATIONS:
            curve = resilience_curve(graph, CLOUD, tiers, configuration, leakers)
            assert curve == sorted(curve)
            assert all(0.0 <= x <= 1.0 for x in curve)

    def test_average_resilience_curve(self, mini_graph):
        curve = average_resilience_curve(
            mini_graph, random.Random(7), origins=4, leakers_per_origin=4
        )
        assert curve
        assert all(0.0 <= x <= 1.0 for x in curve)

    def test_cdf_points(self):
        points = cdf_points([0.5, 0.1, 0.1, 1.0])
        assert points[0] == (0.1, 0.25)
        assert points[-1] == (1.0, 1.0)

    def test_fraction_at_most(self):
        assert fraction_at_most([0.0, 0.1, 0.5], 0.2) == pytest.approx(2 / 3)
        assert fraction_at_most([], 0.5) == 0.0

    def test_unknown_configuration_rejected(self, mini, mini_tiers):
        graph, tiers = mini
        with pytest.raises(ValueError):
            configuration_seed_and_locks(graph, CLOUD, tiers, "bogus")


def _per_leaker(graph, seed, leakers, engine="reference", **kwargs):
    """The oracle: :func:`simulate_leak` per leaker, each with its own
    baseline propagation."""
    return [
        simulate_leak(graph, seed, leaker, engine=engine, **kwargs)
        for leaker in leakers
    ]


def _drawn_pairs(rng, graph, origins, leakers_per_origin):
    """``average_resilience_curve``'s (origin, leaker) draw."""
    nodes = sorted(graph.nodes())
    pairs = []
    for _ in range(origins):
        origin = rng.choice(nodes)
        for _ in range(leakers_per_origin):
            leaker = rng.choice(nodes)
            if leaker != origin:
                pairs.append((origin, leaker))
    return pairs


class TestSweepEquivalence:
    @pytest.mark.parametrize(
        "profile,seed", [("tiny", 20200901), ("tiny", 7), ("tiny", 8)]
    )
    @pytest.mark.parametrize("mode", list(LeakMode))
    @pytest.mark.parametrize("semantics", list(PeerLockSemantics))
    def test_resilience_curves_identical(self, profile, seed, mode, semantics):
        graph = netgen_graph(profile, seed=seed)
        tiers = infer_tiers(graph, tier2_count=5, min_tier1_adjacency=1)
        origin = sample_origins(graph, 1, seed=seed)[0]
        leakers = sample_origins(graph, 8, seed=seed + 1)
        for configuration in LEAK_CONFIGURATIONS:
            config_seed, locks = configuration_seed_and_locks(
                graph, origin, tiers, configuration
            )
            eligible = [a for a in leakers if a != origin]
            # two members of the lock set leak too
            sweep = eligible + sorted(locks - {origin} - set(eligible))[:2]
            oracle = _per_leaker(
                graph, config_seed, sweep, peer_locked=locks, mode=mode,
                semantics=semantics,
            )
            got = simulate_leaks(
                graph, config_seed, sweep, peer_locked=locks, mode=mode,
                semantics=semantics, engine="compiled",
            )
            context = (
                f"{configuration} ({profile}, seed={seed}, {mode}, "
                f"{semantics})"
            )
            assert got == oracle, context
            curve = resilience_curve(
                graph, origin, tiers, configuration, leakers,
                mode=mode, semantics=semantics, engine="compiled",
            )
            assert curve == sorted(
                outcome.fraction_detoured
                for outcome in oracle[: len(eligible)]
                if outcome is not None
            ), context

    def test_simulate_leaks_outcomes_identical(self):
        graph = netgen_graph("small", seed=20200901)
        origin = sample_origins(graph, 1, seed=5)[0]
        leakers = [a for a in sample_origins(graph, 10, seed=6) if a != origin]
        oracle = _per_leaker(graph, origin, leakers)
        for engine in ("compiled", "reference"):
            got = simulate_leaks(graph, origin, leakers, engine=engine)
            assert got == oracle, engine
        assert any(outcome is not None for outcome in oracle)

    def test_parallel_sweep_matches_serial(self):
        graph = netgen_graph("tiny", seed=7)
        origin = sample_origins(graph, 1, seed=2)[0]
        leakers = [a for a in sample_origins(graph, 8, seed=3) if a != origin]
        # leak seeds and plain locked ASNs both cross the pool
        locked = frozenset(leakers[:2])
        for peer_locked in (frozenset(), locked):
            serial = simulate_leaks(
                graph, origin, leakers, peer_locked=peer_locked,
                engine="compiled",
            )
            parallel = simulate_leaks(
                graph, origin, leakers, peer_locked=peer_locked,
                engine="compiled", workers=WORKERS,
            )
            assert parallel == serial
            assert parallel == _per_leaker(
                graph, origin, leakers, peer_locked=peer_locked
            )

    @pytest.mark.parametrize("profile_name", ["tiny", "small"])
    def test_locked_leaker_falls_back_to_full_simulation(self, profile_name):
        # a leaker inside the lock set is unlocked in its own baseline, so
        # its re-announce length may differ from the shared baseline's:
        # every lock-set member of every cloud leaks here.  On small the
        # per-leaker oracle runs the compiled kernel, which keeps the test
        # fast; the engines agree leak for leak on tiny.
        scenario = build_scenario(profile(profile_name, seed=20200901))
        graph, tiers = scenario.graph, scenario.tiers
        engine = "reference" if profile_name == "tiny" else "compiled"
        for origin in sorted(scenario.clouds.values()):
            for configuration in LOCK_CONFIGURATIONS:
                seed, locks = configuration_seed_and_locks(
                    graph, origin, tiers, configuration
                )
                leakers = sorted(locks - {origin})
                oracle = _per_leaker(
                    graph, seed, leakers, engine=engine, peer_locked=locks
                )
                got = simulate_leaks(
                    graph, seed, leakers, peer_locked=locks, engine="compiled"
                )
                assert got == oracle, (profile_name, origin, configuration)

    def test_single_leak_parity_across_modes(self):
        graph = netgen_graph("tiny", seed=8)
        origin = sample_origins(graph, 1, seed=1)[0]
        leaker = next(
            a for a in sample_origins(graph, 5, seed=11) if a != origin
        )
        for mode in LeakMode:
            full = simulate_leak(
                graph, origin, leaker, mode=mode, engine="reference"
            )
            compiled = simulate_leak(
                graph, origin, leaker, mode=mode, engine="compiled"
            )
            assert compiled == full, mode
        # the leak seed carries its length: no baseline needed
        seed = leak_seed(graph, origin, leaker)
        assert simulate_leak(graph, origin, seed) == simulate_leak(
            graph, origin, leaker
        )

    def test_average_resilience_curve_identical(self):
        graph = netgen_graph("tiny", seed=7)
        pairs = _drawn_pairs(random.Random(42), graph, 4, 4)
        oracle = sorted(
            outcome.fraction_detoured
            for origin, leaker in pairs
            for outcome in [
                simulate_leak(graph, origin, leaker, engine="reference")
            ]
            if outcome is not None
        )
        for engine, workers in (("compiled", None), ("compiled", WORKERS),
                                ("reference", None)):
            curve = average_resilience_curve(
                graph, random.Random(42), origins=4, leakers_per_origin=4,
                engine=engine, workers=workers,
            )
            assert curve == oracle, (engine, workers)

    def test_lock_coverage_sweep_identical(self):
        graph = netgen_graph("tiny", seed=20200901)
        origin = sample_origins(graph, 1, seed=7)[0]
        neighbors = sorted(graph.neighbors(origin))
        # half the leakers neighbor the origin, so some are locked
        leakers = (
            neighbors[: len(neighbors) // 2] + sample_origins(graph, 8, seed=8)
        )
        eligible = [leaker for leaker in leakers if leaker != origin]
        coverages = (0.0, 0.5, 1.0)
        rng = random.Random(17)
        oracle = {}
        for coverage in coverages:
            count = round(coverage * len(neighbors))
            locked = frozenset(rng.sample(neighbors, k=count))
            fractions = [
                outcome.fraction_detoured
                for outcome in _per_leaker(
                    graph, origin, eligible, peer_locked=locked
                )
                if outcome is not None
            ]
            oracle[coverage] = sum(fractions) / len(fractions)
        got = lock_coverage_sweep(
            graph, origin, leakers, coverages=coverages,
            rng=random.Random(17), engine="compiled",
        )
        assert got == oracle
