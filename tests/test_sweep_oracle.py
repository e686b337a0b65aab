"""Every all-origin sweep against its oracle, and its one-view footprint.

Each sweep — the hierarchy-free reliance summaries of Fig. 6 / Table 2,
the Fig. 13 path-length mix, global hegemony and the collector RIBs —
has one path per engine: ``DEFAULT_BATCH``-wide bit-parallel batches on
the compiled engine, and per-origin propagations on the reference
engine, the oracle.  This module pins the two equal on ``tiny`` and
``small``, with the width narrowed so every sweep spans several batches
and ends on a ragged one; checks that an unknown engine raises; and
checks, under tracemalloc, that a sweep holds one batch of views
whatever its origin count.
"""

from __future__ import annotations

import gc
import random
import weakref
import tracemalloc

import pytest

from .conftest import assert_states_equal, sample_origins
from repro.bgpsim import multiorigin, propagate_batch, propagate_origins
from repro.collectors import collect_ribs, dumps_mrt
from repro.core.hegemony import global_hegemony
from repro.core.pathlen import fig13_bars_sweep
from repro.core.reliance import (
    hierarchy_free_reliance_summaries,
    reliance_summary_sweep,
)

#: narrowed batch width: 19 origins span three batches, the last ragged
WIDTH = 8
ORIGINS = 19


@pytest.fixture
def narrow(monkeypatch):
    monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", WIDTH)


@pytest.fixture(scope="module", params=["tiny", "small"])
def scenario(request):
    from repro.netgen import build_scenario, profile

    return build_scenario(profile(request.param))


class TestBatched:
    def test_ragged_chunks(self, narrow):
        chunks = multiorigin.batched(list(range(ORIGINS)))
        assert [len(c) for c in chunks] == [8, 8, 3]
        assert [o for c in chunks for o in c] == list(range(ORIGINS))
        assert multiorigin.batched([]) == []

    def test_resolve_batch_is_the_width(self, narrow):
        assert multiorigin.resolve_batch() == WIDTH

    def test_views_drop_each_view_once_passed(self, mini_graph):
        # the batch keeps no view: each one is freed, by refcount alone,
        # as soon as the sweep moves past it
        batch = propagate_batch(mini_graph, sorted(mini_graph.nodes()))
        passed = []
        gc.disable()
        try:
            for origin, view in batch.views():
                assert view.seed_asns == {origin}
                assert view.route_class(origin) is not None
                passed.append(weakref.ref(view))
                del view
                assert all(ref() is None for ref in passed)
        finally:
            gc.enable()
        assert len(passed) == len(batch.origins)

    def test_batch_freed_by_refcount_after_view_at(self, mini_graph):
        # a view taken with view_at (as the big-int metric fallbacks do)
        # must not tie the batch into a cycle only the cyclic GC frees
        batch = propagate_batch(mini_graph, sorted(mini_graph.nodes()))
        alive = weakref.ref(batch)
        gc.disable()
        try:
            view = batch.view_at(1)
            assert view.route_class(view.seeds[0].asn) is not None
            del batch, view
            assert alive() is None
        finally:
            gc.enable()


class TestSweepsMatchOracle:
    """Compiled batched sweeps equal the reference engine's per-origin
    tasks, bit for bit, across several batches."""

    def test_propagate_origins(self, scenario, narrow):
        graph = scenario.graph
        origins = sample_origins(graph, ORIGINS, seed=1)
        compiled = list(
            propagate_origins(graph, origins, engine="compiled")
        )
        reference = list(
            propagate_origins(graph, origins, engine="reference")
        )
        assert [o for o, _ in compiled] == origins
        assert [o for o, _ in reference] == origins
        for (origin, ours), (_, theirs) in zip(compiled, reference):
            assert_states_equal(ours, theirs, f"(origin={origin})")

    def test_reliance_summary_sweep_common_excluded(self, scenario, narrow):
        graph = scenario.graph
        origins = sample_origins(graph, ORIGINS, seed=2)
        common = scenario.tiers.hierarchy
        items = [(o, common - {o}) for o in origins]
        # a second excluded set makes a second group of batches
        items += [(o, frozenset()) for o in origins[:5]]
        compiled = reliance_summary_sweep(graph, items, engine="compiled")
        reference = reliance_summary_sweep(graph, items, engine="reference")
        assert compiled == reference

    def test_hierarchy_free_summaries(self, scenario, narrow):
        graph = scenario.graph
        origins = sample_origins(graph, ORIGINS, seed=3)
        compiled = hierarchy_free_reliance_summaries(
            graph, origins, scenario.tiers, engine="compiled"
        )
        reference = hierarchy_free_reliance_summaries(
            graph, origins, scenario.tiers, engine="reference"
        )
        assert compiled == reference

    def test_global_hegemony(self, scenario, narrow):
        graph = scenario.graph
        targets = sample_origins(graph, 6, seed=4)
        origins = sample_origins(graph, ORIGINS, seed=5) + targets[:1]
        compiled = global_hegemony(
            graph, targets, origins=origins, engine="compiled"
        )
        reference = global_hegemony(
            graph, targets, origins=origins, engine="reference"
        )
        assert compiled == reference  # bit-identical floats

    def test_fig13_bars_sweep(self, scenario, narrow):
        graph = scenario.graph
        origins = sample_origins(graph, ORIGINS, seed=6)
        compiled = fig13_bars_sweep(
            graph, origins, scenario.users, engine="compiled"
        )
        reference = fig13_bars_sweep(
            graph, origins, scenario.users, engine="reference"
        )
        assert compiled == reference

    def test_collect_ribs(self, scenario, narrow):
        origins = sample_origins(scenario.graph, ORIGINS, seed=7)
        dumps = [
            collect_ribs(
                scenario.graph,
                scenario.monitors,
                scenario.prefixes,
                origins=origins,
                rng=random.Random(7),
                engine=engine,
            )
            for engine in ("compiled", "reference")
        ]
        assert len(dumps[0]) > 0
        assert dumps_mrt(dumps[0]) == dumps_mrt(dumps[1])

    def test_duplicate_origins(self, scenario, narrow):
        graph = scenario.graph
        a, b = sample_origins(graph, 2, seed=8)
        origins = [a, b, a] * 4  # duplicates inside and across batches
        compiled = fig13_bars_sweep(
            graph, origins, scenario.users, engine="compiled"
        )
        reference = fig13_bars_sweep(
            graph, origins, scenario.users, engine="reference"
        )
        assert compiled == reference
        assert compiled[0] == compiled[2] == compiled[-1]


class TestEmptyAndInvalid:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_empty_origin_sets(self, mini, engine):
        graph, tiers = mini
        assert list(propagate_origins(graph, [], engine=engine)) == []
        assert reliance_summary_sweep(graph, [], engine=engine) == []
        assert hierarchy_free_reliance_summaries(
            graph, [], tiers, engine=engine
        ) == []
        assert fig13_bars_sweep(graph, [], {}, engine=engine) == []
        assert global_hegemony(
            graph, [100], origins=[], engine=engine
        ) == {100: 0.0}
        assert len(collect_ribs(graph, [100], {}, engine=engine)) == 0

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda g, t: propagate_origins(g, [100], engine="bogus"),
            lambda g, t: reliance_summary_sweep(
                g, [(100, ())], engine="bogus"
            ),
            lambda g, t: hierarchy_free_reliance_summaries(
                g, [100], t, engine="bogus"
            ),
            lambda g, t: global_hegemony(
                g, [201], origins=[100], engine="bogus"
            ),
            lambda g, t: fig13_bars_sweep(g, [100], {}, engine="bogus"),
            lambda g, t: collect_ribs(
                g, [201], {100: "10.0.0.0/16"}, engine="bogus"
            ),
        ],
        ids=[
            "propagate_origins",
            "reliance_summary_sweep",
            "hierarchy_free_reliance_summaries",
            "global_hegemony",
            "fig13_bars_sweep",
            "collect_ribs",
        ],
    )
    def test_unknown_engine_raises(self, mini, sweep):
        graph, tiers = mini
        with pytest.raises(ValueError, match="unknown engine"):
            sweep(graph, tiers)


# ---------------------------------------------------------------------------
# footprint: one batch of views, whatever the origin count
# ---------------------------------------------------------------------------


def _sweeps(scenario):
    """Each all-origin sweep on the compiled engine, as ``run(origins)``."""
    graph = scenario.graph
    targets = sample_origins(graph, 4, seed=9)
    none = frozenset()
    return {
        "reliance_summary_sweep": lambda origins: reliance_summary_sweep(
            graph, [(o, none) for o in origins], engine="compiled"
        ),
        "fig13_bars_sweep": lambda origins: fig13_bars_sweep(
            graph, origins, scenario.users, engine="compiled"
        ),
        "global_hegemony": lambda origins: global_hegemony(
            graph, targets, origins=origins, engine="compiled"
        ),
        "collect_ribs": lambda origins: collect_ribs(
            graph,
            scenario.monitors,
            scenario.prefixes,
            origins=origins,
            engine="compiled",
        ),
    }


def _working_set(run, origins) -> int:
    """Peak traced bytes above the sweep's own result: a collector dump
    grows with the origins by design, the states behind it must not."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run(origins)  # still referenced, so it counts in kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept


@pytest.mark.parametrize(
    "name",
    [
        "reliance_summary_sweep",
        "fig13_bars_sweep",
        "global_hegemony",
        "collect_ribs",
    ],
)
def test_sweep_memory_is_o_batch(name, narrow):
    from repro.netgen import build_scenario, profile

    scenario = build_scenario(profile("tiny"))
    scenario.graph.compile()  # charge one-time compile outside the peaks
    run = _sweeps(scenario)[name]
    every = sorted(scenario.graph.nodes())
    # warm-up pass so interpreter/allocator one-time costs don't count
    run(every[:WIDTH])
    quarter = _working_set(run, every[: len(every) // 4])
    full = _working_set(run, every)
    # 4x the origins must NOT mean 4x the peak: the batch is the bound
    assert full < 2 * quarter, (full, quarter)
