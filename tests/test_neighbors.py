"""Unit tests for neighbor inference and validation (§4.1, §5)."""

import pytest

from repro.mapping import (
    cymru_from_scenario,
    peeringdb_from_scenario,
    whois_from_scenario,
)
from repro.mapping.resolver import ResolvedHop
from repro.netgen import build_scenario, profile, tiny
from repro.neighbors import (
    FINAL_STAGE,
    STAGES,
    build_resolver,
    infer_all_clouds,
    infer_from_traceroutes,
    stage_by_name,
    validate_all,
    validate_neighbors,
)
from repro.topology import augment_with_neighbors
from repro.traceroute import TracerouteCampaign


@pytest.fixture(scope="module")
def pipeline():
    scenario = build_scenario(tiny())
    campaign = TracerouteCampaign(scenario, seed=2)
    traces = campaign.run_all()
    return scenario, traces


class TestStages:
    def test_stage_lookup(self):
        assert stage_by_name("V0").skip_one_unknown
        assert not stage_by_name("V4").skip_one_unknown
        with pytest.raises(KeyError):
            stage_by_name("V9")

    def test_final_stage_order(self):
        assert FINAL_STAGE.resolution_order == ("peeringdb", "cymru", "whois")
        assert FINAL_STAGE.vm_limit is None

    def test_resolver_order_must_match_stage(self, pipeline):
        scenario, traces = pipeline
        cloud = scenario.clouds["Google"]
        wrong = build_resolver(scenario, stage_by_name("V0"))
        with pytest.raises(ValueError):
            infer_from_traceroutes(cloud, traces[cloud], wrong, FINAL_STAGE)


class TestInference:
    def test_final_stage_is_accurate(self, pipeline):
        scenario, traces = pipeline
        inferred = infer_all_clouds(scenario, traces, FINAL_STAGE)
        truth = {c: scenario.true_cloud_neighbors(c) for c in inferred}
        reports = validate_all(
            {c: inf.neighbors for c, inf in inferred.items()}, truth
        )
        for report in reports.values():
            assert report.fdr < 0.2
            assert report.fnr < 0.3

    def test_initial_stage_is_noisy(self, pipeline):
        scenario, traces = pipeline
        v0 = infer_all_clouds(scenario, traces, stage_by_name("V0"))
        v4 = infer_all_clouds(scenario, traces, FINAL_STAGE)
        truth = {c: scenario.true_cloud_neighbors(c) for c in v0}
        r0 = validate_all({c: i.neighbors for c, i in v0.items()}, truth)
        r4 = validate_all({c: i.neighbors for c, i in v4.items()}, truth)
        mean_fdr0 = sum(r.fdr for r in r0.values()) / len(r0)
        mean_fdr4 = sum(r.fdr for r in r4.values()) / len(r4)
        assert mean_fdr0 > 0.3  # the paper's ~50% initial FDR
        assert mean_fdr4 < mean_fdr0 / 2

    def test_evidence_counts_match_used(self, pipeline):
        scenario, traces = pipeline
        cloud = scenario.clouds["Google"]
        resolver = build_resolver(scenario, FINAL_STAGE)
        result = infer_from_traceroutes(
            cloud, traces[cloud], resolver, FINAL_STAGE
        )
        assert sum(result.evidence.values()) == result.used
        assert set(result.evidence) == result.neighbors
        assert result.discarded >= 0

    def test_inference_beats_bgp_view(self, pipeline):
        # The whole point of §4.1: traceroutes uncover far more neighbors
        # than BGP feeds see.
        scenario, traces = pipeline
        inferred = infer_all_clouds(scenario, traces, FINAL_STAGE)
        for cloud, result in inferred.items():
            visible = scenario.visible_cloud_neighbors(cloud)
            truth = scenario.true_cloud_neighbors(cloud)
            found_real = len(result.neighbors & truth)
            assert found_real > len(visible & truth)

    def test_augmentation_with_inferred_neighbors(self, pipeline):
        scenario, traces = pipeline
        inferred = infer_all_clouds(scenario, traces, FINAL_STAGE)
        augmented = scenario.public_graph.copy()
        report = augment_with_neighbors(
            augmented, {c: i.neighbors for c, i in inferred.items()}
        )
        for cloud in scenario.cloud_asns():
            assert augmented.degree(cloud) >= scenario.public_graph.degree(cloud)
            assert report.added_count(cloud) > 0


class _UnmemoizedCascade:
    """The resolution cascade run afresh for every hop: no memo, and each
    service is handed the hop's address as the trace table stores it."""

    def __init__(self, scenario, order):
        self.order = order
        self._services = {
            "peeringdb": peeringdb_from_scenario(scenario).ip_to_asn,
            "cymru": cymru_from_scenario(scenario).lookup,
            "whois": whois_from_scenario(scenario).lookup_asn,
        }

    def resolve(self, ip):
        for service in self.order:
            asn = self._services[service](ip)
            if asn is not None:
                return ResolvedHop(asn=asn, source=service)
        return None


@pytest.fixture(scope="module", params=["tiny", "small"])
def campaign(request):
    config = profile(request.param)
    scenario = build_scenario(config)
    # the campaign seed build_context uses
    traces = TracerouteCampaign(scenario, seed=config.seed + 2).run_all()
    return scenario, traces


class TestMemoizedResolution:
    """One memoized resolver per stage infers what a per-hop replay does."""

    @pytest.mark.parametrize("stage", STAGES, ids=lambda s: s.name)
    def test_matches_unmemoized_replay(self, campaign, stage):
        scenario, traces = campaign
        inferred = infer_all_clouds(scenario, traces, stage)
        cascade = _UnmemoizedCascade(scenario, stage.resolution_order)
        assert set(inferred) == set(traces)
        for cloud, cloud_traces in traces.items():
            want = infer_from_traceroutes(cloud, cloud_traces, cascade, stage)
            got = inferred[cloud]
            assert got.neighbors == want.neighbors
            assert got.evidence == want.evidence
            assert (got.used, got.discarded) == (want.used, want.discarded)


class TestValidationMath:
    def test_confusion_counts(self):
        report = validate_neighbors(1, {2, 3, 4}, {3, 4, 5, 6})
        assert report.true_positives == 2
        assert report.false_positives == 1
        assert report.false_negatives == 2
        assert report.fdr == pytest.approx(1 / 3)
        assert report.fnr == pytest.approx(1 / 2)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(1 / 2)

    def test_empty_sets(self):
        report = validate_neighbors(1, set(), set())
        assert report.fdr == 0.0
        assert report.fnr == 0.0

    def test_as_row_keys(self):
        row = validate_neighbors(7, {1}, {1}).as_row()
        assert row["cloud_asn"] == 7
        assert row["fdr"] == 0.0
        assert row["inferred"] == row["truth"] == 1
