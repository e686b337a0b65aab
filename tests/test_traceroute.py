"""Unit tests for the traceroute simulator."""

import hashlib
import random

import pytest

from repro.bgpsim import Seed, propagate
from repro.bgpsim.compiled import CompiledRoutingState
from repro.bgpsim.multiorigin import BatchOriginView
from repro.bgpsim.parallel import propagate_origins
from repro.netgen import (
    ArtifactRates,
    ScenarioConfig,
    build_scenario,
    profile,
    tiny,
)
from repro.traceroute import (
    NO_REPLY,
    ArtifactModel,
    TraceTable,
    TracerouteCampaign,
    expand_path,
    nearest_interconnect,
    vantage_points,
)


def quiet_config(seed: int = 7) -> ScenarioConfig:
    """Tiny profile with all measurement noise disabled."""
    from dataclasses import replace

    return replace(
        tiny(seed),
        artifacts=ArtifactRates(
            unresponsive_hop=0.0,
            unresponsive_border=0.0,
            ixp_unannounced=0.5,
            ixp_misattribution=0.0,
            rate_limited=0.0,
            tunnel_suppression=0.0,
            policy_deviation=0.0,
            route_server_fraction=0.0,
        ),
    )


@pytest.fixture(scope="module")
def quiet():
    return build_scenario(quiet_config())


@pytest.fixture(scope="module")
def noisy():
    return build_scenario(tiny())


class TestVantagePoints:
    def test_one_vm_per_datacenter_city(self, quiet):
        for asn in quiet.cloud_asns():
            vms = vantage_points(quiet, asn)
            assert len(vms) == len(quiet.vm_cities[asn])
            assert len({vm.label for vm in vms}) == len(vms)


class TestExpandPath:
    def test_clean_path_structure(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=1)
        cloud = quiet.clouds["Google"]
        vm = vantage_points(quiet, cloud)[0]
        neighbor = sorted(quiet.graph.neighbors(cloud))[0]
        trace = campaign.measure(vm, neighbor, wan_egress=True)
        assert trace.reached
        assert trace.true_as_path[0] == cloud
        assert trace.true_as_path[-1] == neighbor
        # all hops respond with noise off
        assert all(h.responded for h in trace.hops)
        # last hop is the destination address
        assert trace.hops[-1].ip == trace.dst_ip

    def test_cloud_interior_uses_cloud_prefix(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=1)
        cloud = quiet.clouds["IBM"]
        vm = vantage_points(quiet, cloud)[0]
        dst = sorted(
            a for a in quiet.graph if a not in quiet.cloud_asns()
        )[0]
        trace = campaign.measure(vm, dst, wan_egress=True)
        prefix = quiet.prefixes[cloud]
        assert trace.hops[0].ip in prefix
        assert trace.hops[1].ip in prefix
        assert trace.hops[2].ip not in prefix  # the border

    def test_border_hop_matches_interconnect(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=3)
        cloud = quiet.clouds["Microsoft"]
        vm = vantage_points(quiet, cloud)[0]
        for dst in sorted(quiet.graph.neighbors(cloud))[:5]:
            trace = campaign.measure(vm, dst, wan_egress=True)
            if trace.true_as_path[1] != dst:
                continue
            link = nearest_interconnect(quiet, cloud, dst, vm)
            assert trace.hops[2].ip == link.neighbor_ip

    def test_invalid_paths_rejected(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=1)
        cloud = quiet.clouds["Google"]
        vm = vantage_points(quiet, cloud)[0]
        with pytest.raises(ValueError):
            expand_path(quiet, campaign.artifacts, random.Random(0), vm, (cloud,))
        with pytest.raises(ValueError):
            expand_path(
                quiet, campaign.artifacts, random.Random(0), vm, (1, 2)
            )


class TestForwardingPaths:
    def test_paths_are_tied_best(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=5)
        cloud = quiet.clouds["Google"]
        vm = vantage_points(quiet, cloud)[0]
        for dst in sorted(quiet.graph.nodes())[::7]:
            if dst == cloud:
                continue
            path = campaign.forwarding_path(vm, dst, wan_egress=True)
            if path is None:
                continue
            state = propagate(quiet.graph, Seed(asn=dst))
            assert state.contains_path(path)

    def test_self_destination_skipped(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=5)
        cloud = quiet.clouds["Google"]
        vm = vantage_points(quiet, cloud)[0]
        assert campaign.forwarding_path(vm, cloud, wan_egress=True) is None

    def test_early_exit_is_deterministic_per_vm(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=5)
        cloud = quiet.clouds["Amazon"]
        vms = vantage_points(quiet, cloud)
        dst = sorted(
            a for a in quiet.graph if a not in quiet.cloud_asns()
        )[10]
        first = campaign.forwarding_path(vms[0], dst, wan_egress=False)
        again = campaign.forwarding_path(vms[0], dst, wan_egress=False)
        assert first[1] == again[1]  # same VM → same exit


class TestCampaign:
    def test_run_cloud_counts(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=2)
        cloud = quiet.clouds["IBM"]
        destinations = sorted(quiet.graph.nodes())[:10]
        traces = campaign.run_cloud(cloud, destinations=destinations)
        vms = len(vantage_points(quiet, cloud))
        expected_dsts = len([d for d in destinations if d != cloud])
        assert len(traces) == vms * expected_dsts

    def test_noise_produces_unresponsive_hops(self, noisy):
        campaign = TracerouteCampaign(noisy, seed=2)
        traces = campaign.run_cloud(noisy.clouds["Google"])
        assert any(
            not hop.responded for trace in traces for hop in trace.hops
        )
        assert any(not t.reached for t in traces)  # rate limiting

    def test_trace_string_rendering(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=1)
        cloud = quiet.clouds["Google"]
        vm = vantage_points(quiet, cloud)[0]
        dst = sorted(quiet.graph.neighbors(cloud))[0]
        text = str(campaign.measure(vm, dst, wan_egress=True))
        assert "traceroute from" in text
        assert str(vm.cloud_asn) in text


class TestCompactStateRegression:
    """The walk must stay on the lazy per-AS accessor (satellite fix).

    ``forwarding_path`` used to index ``state.routes[node]``, forcing
    every compiled state to materialize its full routes dict and
    defeating the compact cache.
    """

    def test_run_cloud_never_materializes_compiled_states(self, quiet):
        from repro.bgpsim import CompiledRoutingState

        campaign = TracerouteCampaign(quiet, seed=2, engine="compiled")
        cloud = quiet.clouds["Google"]
        destinations = sorted(quiet.graph.nodes())[:12]
        traces = campaign.run_cloud(cloud, destinations=destinations)
        assert traces
        states = list(campaign._states._states.values())
        assert states
        for state in states:
            assert isinstance(state, CompiledRoutingState)
            assert state._materialized is None
            # batch views answer the walk off their tie rows: no pools
            assert "_parent_head" not in state.__dict__


class TestExitDistanceMemo:
    """Exit distances depend only on (cloud, neighbor, VM city) — they
    are computed once per key, not once per destination (satellite fix).
    """

    def test_memo_populated_and_stable(self, quiet):
        campaign = TracerouteCampaign(quiet, seed=5)
        cloud = quiet.clouds["Amazon"]  # early-exit: hits exit_distance
        vm = vantage_points(quiet, cloud)[0]
        destinations = [
            a for a in sorted(quiet.graph.nodes())[:20]
            if a not in quiet.cloud_asns()
        ]
        for dst in destinations:
            campaign.forwarding_path(vm, dst, wan_egress=False)
        memo = campaign._expander.exit_km
        assert memo  # the min-haversine results were cached
        assert all(key[0] == cloud for key in memo)
        assert all(key[2] == vm.city.code for key in memo)
        # a second sweep over the same destinations adds no new keys
        before = dict(memo)
        for dst in destinations:
            campaign.forwarding_path(vm, dst, wan_egress=False)
        assert campaign._expander.exit_km == before

    def test_memoized_choice_unchanged(self, quiet):
        """Same forwarding decisions with a cold and a warm memo."""
        cloud = quiet.clouds["Amazon"]
        dst = sorted(
            a for a in quiet.graph if a not in quiet.cloud_asns()
        )[10]
        cold = TracerouteCampaign(quiet, seed=5)
        warm = TracerouteCampaign(quiet, seed=5)
        vm = vantage_points(quiet, cloud)[0]
        warm.forwarding_path(vm, dst, wan_egress=False)  # prime the memo
        warm.rng = __import__("random").Random(5)
        cold_path = cold.forwarding_path(vm, dst, wan_egress=False)
        warm_path = warm.forwarding_path(vm, dst, wan_egress=False)
        assert cold_path == warm_path


def trace_digest(traces_by_cloud) -> str:
    """sha256 over every trace in campaign order: its cloud, VM index,
    destination, reached flag and true AS path, and each hop's TTL and
    address ('*' for no reply)."""
    digest = hashlib.sha256()
    for cloud, traces in traces_by_cloud.items():
        for trace in traces:
            hops = " ".join(
                f"{hop.ttl}:{hop.ip if hop.ip is not None else '*'}"
                for hop in trace.hops
            )
            path = "-".join(map(str, trace.true_as_path))
            digest.update(
                f"{cloud} {trace.vantage.index} {trace.dst_asn} "
                f"{int(trace.reached)} {path} {hops}\n".encode()
            )
    return digest.hexdigest()


#: (profile, scenario seed, traces, digest) of the campaign
#: ``build_context`` runs (campaign seed = scenario seed + 2): ``tiny``,
#: and the two ``report`` contexts at benchmark seeds 0 and 104729.  The
#: digests were taken when traces were still lists of objects; the
#: column store and every walk shortcut must reproduce them exactly.
PINNED_CAMPAIGNS = [
    ("tiny", 7, 1584,
     "44ff00a041828c35efc38de1e262ad851ff2a83f454c4f3d2cec156310e6bf23"),
    ("small", 20200901, 33957,
     "bce2207a8383bec6149bcd8c15b8b293171bd762906c151ded1a573c51e1c646"),
    ("small", 20305630, 33957,
     "656c252073d8a3d2d81b364f19030eee0a05801e23af44b4001b9e0ed41cc286"),
    ("small2015", 20150901, 19570,
     "ef98af41832d00efe4acfa27490fa2ed349e7b33af92a5f49c28df946deb4888"),
    ("small2015", 20255630, 19570,
     "69894994feed7059c299fbddf0614db9b5b025701760813e4b7ad519dae79195"),
]


def _campaign(name: str, seed: int) -> dict:
    config = profile(name, seed=seed)
    scenario = build_scenario(config)
    return TracerouteCampaign(scenario, seed=config.seed + 2).run_all()


class TestPinnedCampaigns:
    """Every trace of a campaign is byte-identical to the pinned one, on
    whichever engine ``REPRO_ENGINE`` selects."""

    @pytest.mark.parametrize(
        "name,seed,count,digest",
        PINNED_CAMPAIGNS,
        ids=[f"{c[0]}-{c[1]}" for c in PINNED_CAMPAIGNS],
    )
    def test_digest(self, name, seed, count, digest):
        traces = _campaign(name, seed)
        assert sum(len(t) for t in traces.values()) == count
        assert trace_digest(traces) == digest

    @pytest.mark.slow
    def test_year2020_digest(self):
        traces = _campaign("year2020", 20200901)
        assert sum(len(t) for t in traces.values()) == 96873
        assert trace_digest(traces) == (
            "09955015f21cf778e98a57c4a3c4c5032299d04e431c1430de1fa74cb74d365b"
        )


class TestSortedParents:
    """The walk's per-AS accessor equals ``sorted(route(asn).parents)``
    on every kind of routing state, including the seed (no parents) and
    unrouted ASes (``None``)."""

    @pytest.mark.parametrize("width", [8, 256])
    def test_matches_route_parents(self, noisy, width, monkeypatch):
        from repro.bgpsim import multiorigin

        monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", width)
        graph = noisy.graph.copy()
        isolated = max(graph.nodes()) + 1
        graph.add_as(isolated)  # unrouted for every origin
        asns = sorted(graph.nodes()) + [isolated + 1]  # and one unknown
        origins = sorted(graph.nodes())[::3] + [isolated]
        views = dict(propagate_origins(graph, origins, engine="compiled"))
        unrouted = 0
        for origin in origins:
            reference = propagate(graph, Seed(asn=origin), engine="reference")
            compiled = propagate(graph, Seed(asn=origin), engine="compiled")
            view = views[origin]
            assert isinstance(view, BatchOriginView)
            want = {}
            for asn in asns:
                route = reference.route(asn)
                want[asn] = None if route is None else tuple(
                    sorted(route.parents)
                )
                unrouted += route is None
            assert want[origin] == ()
            for state in (reference, compiled, view):
                assert {a: state.sorted_parents(a) for a in asns} == want
            # the view answered off its batch's tie rows; the pools
            # _build_arrays builds give the same parents
            assert "_parent_head" not in view.__dict__
            view._build_arrays()
            assert {a: view.sorted_parents(a) for a in asns} == want
            assert {
                a: CompiledRoutingState.sorted_parents(view, a) for a in asns
            } == want
            assert compiled._materialized is None
        assert unrouted >= 2 * len(origins)


class TestTraceTable:
    """A cloud's table is a ``Sequence[Traceroute]`` over its columns."""

    @pytest.fixture(scope="class")
    def table(self, noisy):
        campaign = TracerouteCampaign(noisy, seed=2)
        return campaign.run_cloud(noisy.clouds["Google"])

    def test_round_trips(self, table):
        traces = list(table)
        assert isinstance(table, TraceTable)
        assert len(traces) == len(table) > 100
        assert [table[t] for t in range(len(table))] == traces
        assert table[-1] == traces[-1]
        with pytest.raises(IndexError):
            table[len(table)]
        for key in (slice(None), slice(10, 60), slice(3, 90, 7), slice(-5, None)):
            part = table[key]
            assert isinstance(part, TraceTable)
            assert list(part) == traces[key]
        assert table[:] == table
        assert table[:10] != table
        assert table[:10] == table[0:10]

    def test_columns(self, table):
        assert table.hop_ip.itemsize == 4  # uint32 addresses
        assert len(table.hop_off) == len(table.path_off) == len(table) + 1
        stars = sum(ip == NO_REPLY for ip in table.hop_ip)
        assert stars == sum(
            not hop.responded for trace in table for hop in trace.hops
        ) > 0
        for t, trace in enumerate(table):
            assert trace.vantage.index == table.vm[t]
            assert trace.true_as_path == table.as_path(t)
            assert int(trace.dst_ip) == table.dst_ip[t]
            assert [int(h.ip or 0) for h in trace.hops] == list(
                table.hop_ip[table.hop_off[t] : table.hop_off[t + 1]]
            )
            assert [h.ttl for h in trace.hops] == list(
                range(1, len(trace.hops) + 1)
            )

    def test_equal_runs_equal_tables(self, noisy, table):
        again = TracerouteCampaign(noisy, seed=2)
        assert again.run_cloud(noisy.clouds["Google"]) == table
        other = TracerouteCampaign(noisy, seed=3)
        assert other.run_cloud(noisy.clouds["Google"]) != table

    def test_measure_is_the_campaign_row(self, noisy):
        cloud = noisy.clouds["Amazon"]
        profile_ = next(p for p in noisy.config.clouds if p.asn == cloud)
        destinations = sorted(noisy.graph.nodes())[:15]
        swept = TracerouteCampaign(noisy, seed=4).run_cloud(
            cloud, destinations=destinations
        )
        single = TracerouteCampaign(noisy, seed=4)
        measured = []
        for dst in destinations:
            if dst == cloud:
                continue
            for vm in vantage_points(noisy, cloud):
                trace = single.measure(vm, dst, profile_.wan_egress)
                if trace is not None:
                    measured.append(trace)
        assert measured == list(swept)
