"""Integration tests: every experiment runs on a tiny context and
produces results with the paper's structure."""

import pytest

from repro.experiments import runner

from repro.experiments import (
    appendixA_paths,
    appendixB_tier1,
    build_context,
    fig2_reachability,
    fig3_cone_vs_hfr,
    fig4_unreachable,
    fig6_table2_reliance,
    fig7_10_leaks,
    fig11_map,
    fig12_coverage,
    fig13_pathlen,
    sec45_validation,
    table1_top20,
    table3_rdns,
)
from repro.experiments.runner import render_all, run_all


@pytest.fixture(scope="module")
def ctx():
    return build_context("tiny")


@pytest.fixture(scope="module")
def ctx2015():
    return build_context("tiny2015")


class TestContext:
    def test_augmented_graph_extends_public(self, ctx):
        for cloud in ctx.scenario.cloud_asns():
            assert ctx.graph.degree(cloud) >= ctx.scenario.public_graph.degree(
                cloud
            )

    def test_validation_reports_available(self, ctx):
        reports = ctx.validation_reports()
        assert set(reports) == set(ctx.scenario.cloud_asns())

    def test_unmeasured_context_uses_truth(self):
        truth_ctx = build_context("tiny", measure=False)
        assert (
            truth_ctx.graph.edge_count()
            == truth_ctx.scenario.graph.edge_count()
        )
        assert not truth_ctx.inferred

    def test_label(self, ctx):
        google = ctx.clouds["Google"]
        assert ctx.label(google) == "Google"


class TestIndividualExperiments:
    def test_fig2(self, ctx):
        result = fig2_reachability.run(ctx)
        assert len(result.rows) == 4 + len(ctx.tiers.tier1) + len(
            ctx.tiers.tier2
        )
        assert "Fig. 2" in result.render()

    def test_table1(self, ctx, ctx2015):
        result = table1_top20.run(ctx, ctx2015, top_n=10)
        assert len(result.entries_2020) == 10
        assert result.entries_2020[0].fraction > 0
        assert "Table 1" in result.render()

    def test_fig3(self, ctx):
        result = fig3_cone_vs_hfr.run(ctx)
        assert len(result.points) == len(ctx.graph)
        assert -1.0 <= result.rank_correlation() <= 1.0
        assert "Fig. 3" in result.render()

    def test_fig4(self, ctx):
        result = fig4_unreachable.run(ctx, top_transit=3)
        assert len(result.rows) == 7
        for row in result.rows:
            total = sum(row.fraction(t) for t in row.breakdown)
            assert total == pytest.approx(1.0) or row.unreachable_total == 0

    def test_fig6_table2(self, ctx):
        result = fig6_table2_reliance.run(ctx)
        assert {c.name for c in result.clouds} == set(ctx.clouds)
        assert "Table 2" in result.render()

    def test_fig7_8(self, ctx):
        result = fig7_10_leaks.run(
            ctx, leaks_per_config=10, baseline_origins=3, baseline_leakers=3
        )
        assert result.average_resilience
        names = {o.name for o in result.origins}
        assert "Facebook" in names
        for origin in result.origins:
            for curve in origin.curves.values():
                assert all(0 <= x <= 1 for x in curve)

    def test_fig9(self, ctx):
        result = fig7_10_leaks.run_fig9(ctx, leaks_per_config=8)
        assert set(result.users_curves) == set(result.curves)

    def test_fig10(self, ctx, ctx2015):
        result = fig7_10_leaks.run_fig10(ctx, ctx2015, leaks_per_config=8)
        assert result.curve_2015 and result.curve_2020

    def test_fig11(self, ctx):
        result = fig11_map.run(ctx)
        assert {"sha", "bjs"} <= result.cloud_only
        assert result.cloud_cities and result.transit_cities

    def test_fig12(self, ctx):
        result = fig12_coverage.run(ctx)
        clouds = result.cohort("clouds")
        assert clouds.percent(500) <= clouds.percent(1000)
        with pytest.raises(KeyError):
            result.cohort("nonexistent")

    def test_table3(self, ctx):
        result = table3_rdns.run(ctx, providers=["Google", "Amazon"])
        assert result.row("Amazon").hostnames == 0
        with pytest.raises(KeyError):
            result.row("Nonexistent")

    def test_appendixA(self, ctx):
        result = appendixA_paths.run(ctx, max_traces_per_cloud=150)
        assert {r.name for r in result.rows} == set(ctx.clouds)
        for row in result.rows:
            assert 0.0 <= row.match_rate <= 1.0
            assert row.total > 0

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_appendixA_matches_per_trace_check(self, ctx, engine, monkeypatch):
        """Grouping traces by destination and batching the propagations
        keeps every count: each trace against its destination's own
        reference propagation, read hop by hop off ``routes``."""
        from repro.bgpsim import Seed
        from repro.bgpsim.engine import propagate_reference

        monkeypatch.setenv("REPRO_ENGINE", engine)
        result = appendixA_paths.run(ctx, max_traces_per_cloud=150)
        graph = ctx.graph
        states = {}
        for row in result.rows:
            matched = total = 0
            for trace in ctx.traceroutes[row.asn][:150]:
                if not trace.reached or trace.dst_asn not in graph:
                    continue
                total += 1
                dst = trace.dst_asn
                if dst not in states:
                    states[dst] = propagate_reference(graph, Seed(asn=dst))
                routes = states[dst].routes
                path = trace.true_as_path
                matched += path[-1] == dst and all(
                    node in routes and parent in routes[node].parents
                    for node, parent in zip(path, path[1:])
                )
            assert (row.matched, row.total) == (matched, total)
            assert row.total > 0

    def test_appendixB(self, ctx):
        result = appendixB_tier1.run(ctx, tier1_names=("Level 3",))
        case = result.case("Level 3")
        assert case.hierarchy_free <= case.tier1_free
        assert 0.0 <= case.drop_explained_by_top6 <= 1.0

    def test_fig13(self, ctx, ctx2015):
        result = fig13_pathlen.run(ctx, ctx2015)
        assert 2020 in result.bars and 2015 in result.bars
        assert "Microsoft" not in result.bars[2015]


class TestLeakWorkers:
    """The leak figures run their sweeps through a process pool; two
    workers give the serial results."""

    def test_fig9(self, ctx):
        serial = fig7_10_leaks.run_fig9(ctx, leaks_per_config=8)
        parallel = fig7_10_leaks.run_fig9(ctx, leaks_per_config=8, workers=2)
        assert parallel.users_curves and parallel == serial

    def test_fig10(self, ctx, ctx2015):
        serial = fig7_10_leaks.run_fig10(ctx, ctx2015, leaks_per_config=8)
        parallel = fig7_10_leaks.run_fig10(
            ctx, ctx2015, leaks_per_config=8, workers=2
        )
        assert parallel.curve_2015 and parallel == serial


#: every ``run_all`` step, as ``(experiment module, function)``
RUN_ALL_STEPS = [
    ("sec45_validation", "run"),
    ("fig2_reachability", "run"),
    ("table1_top20", "run"),
    ("fig3_cone_vs_hfr", "run"),
    ("fig4_unreachable", "run"),
    ("fig6_table2_reliance", "run"),
    ("fig7_10_leaks", "run"),
    ("fig7_10_leaks", "run_fig9"),
    ("fig7_10_leaks", "run_fig10"),
    ("fig11_map", "run"),
    ("fig12_coverage", "run"),
    ("table3_rdns", "run"),
    ("appendixA_paths", "run"),
    ("appendixB_tier1", "run"),
    ("appendixD_geolocation", "run"),
    ("fig13_pathlen", "run"),
    ("metrics_comparison", "run"),
]


class TestRunner:
    def test_workers_reach_only_the_leak_figures(self, monkeypatch):
        received = {}

        def recorder(step):
            def run(*args, **kwargs):
                received[step] = kwargs
                return step
            return run

        for module, function in RUN_ALL_STEPS:
            step = f"{module}.{function}"
            monkeypatch.setattr(
                getattr(runner, module), function, recorder(step)
            )
        results = run_all(None, None, leaks_per_config=6, workers=2)
        assert len(received) == len(results) == len(RUN_ALL_STEPS)
        pooled = {
            step: kwargs["workers"]
            for step, kwargs in received.items()
            if "workers" in kwargs
        }
        assert pooled == {
            "fig7_10_leaks.run": 2,
            "fig7_10_leaks.run_fig9": 2,
            "fig7_10_leaks.run_fig10": 2,
        }

    def test_run_all_and_render(self, ctx, ctx2015):
        results = run_all(ctx, ctx2015, leaks_per_config=6)
        assert len(results) == 17
        report = render_all(results)
        for marker in ("fig2", "table1", "fig13", "appendixB", "appendixD"):
            assert f"===== {marker} =====" in report
