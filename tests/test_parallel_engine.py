"""Differential harness: the process pool ≡ the serial loop.

:func:`repro.bgpsim.graph_map` is the one pool primitive; the route-leak
sweeps and the metric precompute pass run through it.  It is only safe to
use if a pooled sweep is *bit-for-bit* the serial loop.  This module
proves it for propagation tasks on randomized synthetic-Internet
scenarios across several seeds and two sizes, with shared
excluded / peer-locked kwargs and multi-seed leak tasks; asserts that the
leak consumers produce identical outputs at ``workers=1`` and
``workers=N``, and that the serial sweeps (collector RIBs, the traceroute
campaign) equal their per-origin computations; checks the valley-free
invariant on the serial batched sweep; pins the transport (the compiled
form ships for compiled tasks, shared kwargs arrive as passed, ``spawn``
workers unpickle the payload) and which sweeps take ``workers=`` at all;
and covers worker failure (original exception surfaces, results before
the failure arrive, the next pool works).

Set ``REPRO_TEST_WORKERS`` to change the parallel worker count (CI runs
the harness at 2).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from .conftest import (
    assert_states_equal,
    assert_valley_free,
    build_mini,
    netgen_graph,
    random_internet,
)
from repro.bgpsim import (
    LeakMode,
    RoutingStateCache,
    Seed,
    graph_map,
    propagate_many,
    propagate_origins,
    resolve_workers,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))

#: (profile, scenario seed) — ≥3 seeds × 2 sizes, per the acceptance bar.
SCENARIOS = [
    ("tiny", 20200901),
    ("tiny", 7),
    ("tiny", 8),
    ("small", 20200901),
    ("small", 7),
    ("small", 8),
]


def sample_origins(graph, count: int, seed: int = 0) -> list[int]:
    nodes = sorted(graph.nodes())
    if len(nodes) <= count:
        return nodes
    return sorted(random.Random(seed).sample(nodes, count))


def _propagate_task(graph, task, **options):
    """One propagation per pooled item (an origin, a seed or seeds)."""
    return next(propagate_many(graph, [task], **options))


def pooled(graph, tasks, **options):
    """``tasks`` propagated through a ``WORKERS``-process pool."""
    return list(
        graph_map(graph, _propagate_task, tasks, workers=WORKERS, **options)
    )


class TestResolveWorkers:
    def test_serial_spellings(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_auto_uses_cpus(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(-1) == resolve_workers("auto")


class TestDifferentialNetgen:
    """Serial vs pooled on seeded synthetic-Internet scenarios."""

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS)
    def test_states_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        origins = sample_origins(graph, 40, seed=seed)
        serial = list(propagate_many(graph, origins))
        parallel = pooled(graph, origins)
        assert len(parallel) == len(origins)
        for origin, s, p in zip(origins, serial, parallel):
            assert_states_equal(
                s, p, f"({profile_name}, seed={seed}, origin={origin})"
            )

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS[:3])
    def test_emitted_paths_valley_free(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        origins = sample_origins(graph, 10, seed=seed + 1)
        for origin, state in propagate_origins(graph, origins):
            receivers = sample_origins(graph, 15, seed=origin)
            for receiver in receivers:
                if not state.has_route(receiver):
                    continue
                for path in state.enumerate_best_paths(receiver, limit=50):
                    assert path[-1] == origin
                    assert_valley_free(graph, path)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_internet_identical(self, seed):
        rng = random.Random(seed)
        graph = random_internet(rng, n_tier1=4, n_transit=8, n_edge=40)
        origins = sorted(graph.nodes())
        serial = list(propagate_many(graph, origins))
        parallel = pooled(graph, origins)
        for origin, s, p in zip(origins, serial, parallel):
            assert_states_equal(s, p, f"(random seed={seed}, origin={origin})")


class TestDifferentialConfigurations:
    """Shared excluded / locked kwargs and multi-seed leak tasks."""

    def test_excluded_and_locked(self):
        graph = netgen_graph("tiny", seed=7)
        nodes = sorted(graph.nodes())
        rng = random.Random(42)
        excluded = frozenset(rng.sample(nodes, 8))
        origins = [n for n in nodes if n not in excluded][:25]
        locked = frozenset(rng.sample(origins, 3))
        serial = list(
            propagate_many(
                graph, origins, excluded=excluded, peer_locked=locked
            )
        )
        parallel = pooled(
            graph, origins, excluded=excluded, peer_locked=locked
        )
        for origin, s, p in zip(origins, serial, parallel):
            assert_states_equal(s, p, f"(excluded/locked, origin={origin})")

    def test_multi_seed_leak_tasks(self):
        graph = netgen_graph("tiny", seed=8)
        nodes = sorted(graph.nodes())
        rng = random.Random(5)
        tasks = []
        for _ in range(12):
            origin, leaker = rng.sample(nodes, 2)
            tasks.append(
                (
                    Seed(asn=origin, key="origin"),
                    Seed(asn=leaker, key="leak", initial_length=2),
                )
            )
        serial = list(propagate_many(graph, tasks))
        parallel = pooled(graph, tasks)
        for task, s, p in zip(tasks, serial, parallel):
            assert_states_equal(s, p, f"(leak task {task[0].asn}/{task[1].asn})")

    def test_ordered_iterator(self):
        graph, _ = build_mini()
        origins = sorted(graph.nodes(), reverse=True)
        states = pooled(graph, origins)
        assert [state.seed_asns for state in states] == [
            {origin} for origin in origins
        ]


class TestConsumersIdentical:
    """The leak sweeps give identical outputs at workers=1 and
    workers=N; the serial sweeps equal their per-origin computations."""

    def test_resilience_curve(self, mini):
        from repro.core import resilience_curve

        graph, tiers = mini
        leakers = sorted(graph.nodes())
        for configuration in ("announce_all", "announce_all_t1_lock"):
            serial = resilience_curve(
                graph, 100, tiers, configuration, leakers, workers=1
            )
            parallel = resilience_curve(
                graph, 100, tiers, configuration, leakers, workers=WORKERS
            )
            assert serial == parallel

    def test_average_resilience_curve(self, mini_graph):
        from repro.core import average_resilience_curve

        serial = average_resilience_curve(
            mini_graph, random.Random(23), origins=5, leakers_per_origin=4,
            workers=1,
        )
        parallel = average_resilience_curve(
            mini_graph, random.Random(23), origins=5, leakers_per_origin=4,
            workers=WORKERS,
        )
        assert serial == parallel

    def test_reliance_sweep(self, mini):
        from repro.core import hierarchy_free_reliance, hierarchy_free_reliance_sweep

        graph, tiers = mini
        origins = [100, 201, 301]
        single = [
            hierarchy_free_reliance(graph, origin, tiers)
            for origin in origins
        ]
        assert hierarchy_free_reliance_sweep(graph, origins, tiers) == single

    def test_lock_coverage_sweep(self):
        from repro.core import lock_coverage_sweep

        graph = netgen_graph("tiny", seed=20200901)
        origin = sample_origins(graph, 1, seed=7)[0]
        neighbors = sorted(graph.neighbors(origin))
        leakers = neighbors[:4] + sample_origins(graph, 8, seed=8)
        serial, parallel = (
            lock_coverage_sweep(
                graph, origin, leakers, coverages=(0.0, 0.5, 1.0),
                rng=random.Random(17), workers=workers,
            )
            for workers in (1, WORKERS)
        )
        assert serial == parallel

    def test_collector_dump(self):
        # one batched sweep over every origin, one RNG stream: the dump
        # is the concatenation of the per-origin dumps
        from repro.collectors import CollectorDump, collect_ribs, dumps_mrt
        from repro.netgen import build_scenario, profile

        scenario = build_scenario(profile("tiny", seed=7))
        swept = collect_ribs(
            scenario.graph, scenario.monitors, scenario.prefixes,
            rng=random.Random(3),
        )
        rng = random.Random(3)
        single = CollectorDump()
        for origin in sorted(scenario.graph.nodes()):
            single.entries += collect_ribs(
                scenario.graph, scenario.monitors, scenario.prefixes,
                origins=[origin], rng=rng,
            ).entries
        assert len(swept.entries) > 0
        assert dumps_mrt(swept) == dumps_mrt(single)

    def test_traceroute_campaign(self):
        # the campaign's batched prefetch against the reference engine,
        # which propagates every destination on its own
        from repro.netgen import build_scenario, profile
        from repro.traceroute import TracerouteCampaign

        scenario = build_scenario(profile("tiny", seed=7))
        swept = TracerouteCampaign(scenario, seed=5).run_all()
        single = TracerouteCampaign(
            scenario, seed=5, engine="reference"
        ).run_all()
        assert any(swept.values())
        assert swept == single

    def test_cache_prefetch_matches_serial_compute(self):
        graph = netgen_graph("tiny", seed=9)
        origins = sample_origins(graph, 20, seed=1)
        warm = RoutingStateCache(graph)
        warm.prefetch(origins)
        cold = RoutingStateCache(graph)
        for origin in origins:
            assert_states_equal(
                cold.state_for(origin),
                warm.state_for(origin),
                f"(prefetch origin={origin})",
            )


def _received(graph, item, **shared):
    """What a pooled task is handed: the graph's type and the kwargs."""
    del item
    return type(graph).__name__, shared


def _refuse_pool(*args, **kwargs):
    raise AssertionError("graph_map started a process pool")


@pytest.fixture
def spawned(monkeypatch):
    """Pools start their workers with ``spawn``, which pickles the
    initializer's graph and shared kwargs instead of inheriting them."""
    monkeypatch.setattr(
        "repro.bgpsim.parallel.ProcessPoolExecutor",
        functools.partial(
            ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("spawn"),
        ),
    )


class TestPoolTransport:
    """The graph and the shared kwargs reach each worker through the
    pool initializer as they are: inherited under ``fork``, pickled once
    per worker under ``spawn``."""

    @pytest.mark.parametrize(
        "engine,form",
        [("compiled", "CompiledGraph"), ("reference", "ASGraph")],
    )
    def test_payload_form_follows_engine(self, mini_graph, engine, form):
        got = list(
            graph_map(
                mini_graph, _received, [1, 2], workers=WORKERS, engine=engine
            )
        )
        assert got == [(form, {"engine": engine})] * 2

    def test_shared_kwargs_arrive_as_passed(self, mini_graph):
        shared = dict(
            excluded=frozenset({3, 4}),
            mode=LeakMode.HIJACK,
            seeds=(Seed(asn=1, key="leak", initial_length=2),),
            engine="compiled",
        )
        got = list(
            graph_map(
                mini_graph, _received, range(3), workers=WORKERS, **shared
            )
        )
        assert got == [("CompiledGraph", shared)] * 3

    def test_empty_items_start_no_pool(self, mini_graph, monkeypatch):
        monkeypatch.setattr(
            "repro.bgpsim.parallel.ProcessPoolExecutor", _refuse_pool
        )
        assert list(graph_map(mini_graph, _explode, [], workers=WORKERS)) == []

    def test_spawned_workers_unpickle_the_payload(self, spawned):
        graph = netgen_graph("tiny", seed=7)
        nodes = sorted(graph.nodes())
        excluded = frozenset(random.Random(6).sample(nodes, 5))
        origins = [n for n in sample_origins(graph, 14, seed=4)
                   if n not in excluded]
        serial = list(propagate_many(graph, origins, excluded=excluded))
        spawned_states = list(
            graph_map(
                graph, _propagate_task, origins, workers=2,
                excluded=excluded,
            )
        )
        assert len(spawned_states) == len(origins)
        for origin, s, p in zip(origins, serial, spawned_states):
            assert_states_equal(s, p, f"(spawn, origin={origin})")

    def test_spawned_leak_sweep_matches_serial(self, spawned):
        from repro.core import simulate_leaks

        graph = netgen_graph("tiny", seed=7)
        origin = sample_origins(graph, 1, seed=2)[0]
        leakers = [a for a in sample_origins(graph, 8, seed=3) if a != origin]
        locked = frozenset(leakers[:2])
        serial = simulate_leaks(graph, origin, leakers, peer_locked=locked)
        assert any(outcome is not None for outcome in serial)
        assert simulate_leaks(
            graph, origin, leakers, peer_locked=locked, workers=2
        ) == serial


#: sweeps that run in-process: ``(module, callable)`` pairs
SERIAL_SWEEPS = [
    ("repro.bgpsim.parallel", "propagate_many"),
    ("repro.bgpsim.parallel", "propagate_origins"),
    ("repro.bgpsim.cache", "RoutingStateCache.prefetch"),
    ("repro.bgpsim.shards", "precompute_shards"),
    ("repro.collectors.rib", "collect_ribs"),
    ("repro.traceroute.engine", "TracerouteCampaign"),
    ("repro.experiments.timeline", "ScenarioRunner"),
    ("repro.core.reliance", "reliance_sweep"),
    ("repro.core.reliance", "hierarchy_free_reliance_sweep"),
    ("repro.core.reliance", "reliance_summary_sweep"),
    ("repro.core.reliance", "hierarchy_free_reliance_summaries"),
    ("repro.experiments.fig6_table2_reliance", "run"),
    ("repro.core.pathlen", "path_length_distribution"),
    ("repro.core.pathlen", "fig13_bars_sweep"),
    ("repro.experiments.fig13_pathlen", "run"),
    ("repro.core.hegemony", "global_hegemony"),
    ("repro.experiments.metrics_comparison", "run"),
]

#: the paths a second worker speeds up, which keep their pool
POOLED_SWEEPS = [
    ("repro.bgpsim.parallel", "graph_map"),
    ("repro.core.leaks", "simulate_leaks"),
    ("repro.core.leaks", "resilience_curve"),
    ("repro.core.leaks", "average_resilience_curve"),
    ("repro.core.leaks", "lock_coverage_sweep"),
    ("repro.experiments.fig7_10_leaks", "leak_curves_for_origin"),
    ("repro.experiments.fig7_10_leaks", "run"),
    ("repro.experiments.fig7_10_leaks", "run_fig9"),
    ("repro.experiments.fig7_10_leaks", "run_fig10"),
    ("repro.experiments.runner", "run_all"),
    ("repro.bgpsim.shards", "precompute_metric_shards"),
]


def _parameters(module: str, name: str) -> set[str]:
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    return set(inspect.signature(obj).parameters)


class TestPoolKnobs:
    def test_workers_only_where_a_pool_runs(self):
        serial = [
            f"{module}.{name}"
            for module, name in SERIAL_SWEEPS
            if "workers" in _parameters(module, name)
        ]
        assert serial == []
        assert all(
            "workers" in _parameters(module, name)
            for module, name in POOLED_SWEEPS
        )
        for name in ("graph_map", "propagate_many"):
            params = _parameters("repro.bgpsim.parallel", name)
            assert "chunksize" not in params


def _explode(graph, item):
    raise RuntimeError(f"worker exploded on {item}")


class TestWorkerFailure:
    def test_propagate_error_surfaces(self, mini_graph):
        missing = 987654
        with pytest.raises(KeyError, match=str(missing)):
            pooled(mini_graph, [1, missing, 2])

    def test_custom_task_error_surfaces(self, mini_graph):
        with pytest.raises(RuntimeError, match="worker exploded on 2"):
            list(graph_map(mini_graph, _explode, [2], workers=WORKERS))

    def test_serial_path_raises_identically(self, mini_graph):
        with pytest.raises(KeyError):
            list(propagate_many(mini_graph, [987654]))
        with pytest.raises(RuntimeError, match="worker exploded"):
            list(graph_map(mini_graph, _explode, [2], workers=1))

    def test_pool_usable_after_failure(self, mini_graph):
        with pytest.raises(KeyError):
            pooled(mini_graph, [987654])
        states = pooled(mini_graph, [1, 2])
        assert len(states) == 2
        for state, origin in zip(states, (1, 2)):
            assert state.seed_asns == {origin}

    def test_results_before_failure_are_delivered(self, mini_graph):
        # two items make two work items (a small list is chunked one item
        # per task), so the iterator yields the first result, then raises
        iterator = graph_map(
            mini_graph, _propagate_task, [1, 987654], workers=WORKERS
        )
        first = next(iterator)
        assert first.seed_asns == {1}
        with pytest.raises(KeyError):
            list(iterator)
