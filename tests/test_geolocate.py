"""Unit tests for the Appendix D geolocation pipeline."""

import random

import pytest

from repro.geo import (
    VP_RADIUS_KM,
    WORLD_CITIES,
    AtlasVP,
    Geolocator,
    PingSimulator,
    RTT_THRESHOLD_MS,
    atlas_from_scenario,
    city_by_code,
    geolocate_routers,
    haversine_km,
    rtt_floor_ms,
)
from repro.mapping import peeringdb_from_scenario, resolver_from_scenario
from repro.netgen import build_scenario, tiny
from repro.pops import generate_footprint


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(tiny())


@pytest.fixture(scope="module")
def footprint(scenario):
    return generate_footprint(scenario, "Hurricane Electric", random.Random(5))


@pytest.fixture(scope="module")
def geolocator(scenario, footprint):
    rng = random.Random(9)
    vps = atlas_from_scenario(scenario, rng, vps_per_city=2)
    pinger = PingSimulator.from_routers(footprint.routers, rng, loss_rate=0.0)
    return Geolocator(
        peeringdb=peeringdb_from_scenario(scenario),
        resolver=resolver_from_scenario(scenario),
        vps=vps,
        pinger=pinger,
    )


class TestAtlasVPs:
    def test_vps_deployed_in_access_cities(self, scenario):
        vps = atlas_from_scenario(scenario, random.Random(1))
        assert vps
        access_cities = {
            info.home_city.code
            for info in scenario.as_info.values()
            if info.kind.value == "access"
        }
        for vp in vps:
            assert vp.city.code in access_cities

    def test_suspicious_vps_exist_and_are_detected(self, scenario):
        vps = atlas_from_scenario(
            scenario, random.Random(1), suspicious_rate=0.5
        )
        assert any(vp.suspicious for vp in vps)
        assert any(not vp.suspicious for vp in vps)


class TestPingSimulator:
    def test_rtt_grows_with_distance(self, footprint):
        rng = random.Random(0)
        pinger = PingSimulator.from_routers(
            footprint.routers, rng, loss_rate=0.0, jitter_ms=0.0
        )
        router = footprint.routers[0]
        ip = router.interfaces[0]
        near_vp = AtlasVP(0, 1, router.city, router.city)
        far_city = city_by_code("syd" if router.city.code != "syd" else "lon")
        far_vp = AtlasVP(1, 1, far_city, far_city)
        near = pinger.rtt_ms(near_vp, ip)
        far = pinger.rtt_ms(far_vp, ip)
        assert near == pytest.approx(0.0, abs=1e-6)
        assert far > RTT_THRESHOLD_MS

    def test_unknown_target_is_lost(self, footprint):
        pinger = PingSimulator({}, random.Random(0))
        vp = AtlasVP(0, 1, city_by_code("lon"), city_by_code("lon"))
        assert pinger.rtt_ms(vp, "203.0.113.9") is None

    def test_threshold_matches_100km(self):
        # the paper's 1 ms bound corresponds to ~100 km in fiber
        assert rtt_floor_ms(100) > RTT_THRESHOLD_MS
        assert rtt_floor_ms(60) < RTT_THRESHOLD_MS


class TestGeolocation:
    def test_candidates_come_from_peeringdb(self, geolocator, footprint):
        ip = footprint.routers[0].interfaces[0]
        candidates = geolocator.candidates(ip)
        assert set(candidates) <= {
            c.code for c in footprint.cities()
        } | set(candidates)  # facility subset sampling keeps most
        assert candidates

    def test_rdns_hint_narrows_candidates(self, scenario, footprint):
        rng = random.Random(9)
        ip = footprint.routers[0].interfaces[0]
        true_code = footprint.routers[0].city.code
        geolocator = Geolocator(
            peeringdb=peeringdb_from_scenario(scenario),
            resolver=resolver_from_scenario(scenario),
            vps=atlas_from_scenario(scenario, rng),
            pinger=PingSimulator.from_routers(footprint.routers, rng),
            rdns_hint=lambda _ip: true_code,
        )
        assert geolocator.candidates(ip) == (true_code,)

    def test_located_answers_are_accurate(self, geolocator, footprint):
        rng = random.Random(4)
        summary = geolocate_routers(
            geolocator, footprint.routers[:30], rng
        )
        assert summary["total"] == sum(
            len(r.interfaces) for r in footprint.routers[:30]
        )
        # located answers are (nearly) always the true city — the RTT
        # test cannot pass for a VP ~100 km from the target
        if summary["coverage"] > 0:
            assert summary["accuracy"] > 0.9

    def test_unresolvable_address_has_no_candidates(self, geolocator):
        result = geolocator.geolocate("203.0.113.77")
        assert not result.located
        assert result.candidates == ()

    def test_suspicious_vps_never_used(self, scenario, footprint):
        rng = random.Random(9)
        vps = atlas_from_scenario(scenario, rng, suspicious_rate=1.0)
        geolocator = Geolocator(
            peeringdb=peeringdb_from_scenario(scenario),
            resolver=resolver_from_scenario(scenario),
            vps=vps,
            pinger=PingSimulator.from_routers(footprint.routers, rng),
        )
        ip = footprint.routers[0].interfaces[0]
        result = geolocator.geolocate(ip)
        assert not result.located  # every VP was suspicious → none usable

    def test_presence_restriction(self, scenario, footprint):
        rng = random.Random(9)
        vps = atlas_from_scenario(scenario, rng)
        geolocator = Geolocator(
            peeringdb=peeringdb_from_scenario(scenario),
            resolver=resolver_from_scenario(scenario),
            vps=vps,
            pinger=PingSimulator.from_routers(footprint.routers, rng),
            presence={
                code: frozenset()  # nobody is present anywhere
                for code in {c.code for c in footprint.cities()}
            },
        )
        ip = footprint.routers[0].interfaces[0]
        assert not geolocator.geolocate(ip).located


class TestVantagePointChoice:
    """``_vp_for`` caches each code's eligible VPs and draws as a scan does."""

    @staticmethod
    def scan(vps, presence, code, rng):
        try:
            target = city_by_code(code)
        except KeyError:
            return None
        allowed = presence.get(code)
        eligible = sorted(
            (
                vp
                for vp in vps
                if not vp.suspicious
                and haversine_km(
                    vp.city.lat, vp.city.lon, target.lat, target.lon
                )
                <= VP_RADIUS_KM
                and (allowed is None or vp.asn in allowed)
            ),
            key=lambda vp: vp.vp_id,
        )
        return rng.choice(eligible) if eligible else None

    def test_draws_match_a_brute_force_scan(self, scenario, footprint):
        vps = atlas_from_scenario(scenario, random.Random(9), vps_per_city=3)
        vp_codes = sorted({vp.city.code for vp in vps})
        lonely = [
            c.code
            for c in WORLD_CITIES
            if self.scan(vps, {}, c.code, random.Random(0)) is None
        ]
        assert lonely  # cities with no VP within the radius
        # one VP city whose VPs are all filtered out by presence
        presence = {vp_codes[0]: frozenset()}
        presence[vp_codes[1]] = frozenset({vps[-1].asn})
        geolocator = Geolocator(
            peeringdb=peeringdb_from_scenario(scenario),
            resolver=resolver_from_scenario(scenario),
            vps=vps,
            pinger=PingSimulator.from_routers(
                footprint.routers, random.Random(1)
            ),
            presence=presence,
        )
        codes = (
            vp_codes
            + [c.code for c in footprint.cities()]
            + lonely[:5]
            + ["zzz", "not-a-city"]
        )
        sequence = codes + codes[::-1] + codes[::3]
        random.Random(4).shuffle(sequence)
        ours, theirs = random.Random(17), random.Random(17)
        picked = [geolocator._vp_for(code, ours) for code in sequence]
        wanted = [self.scan(vps, presence, code, theirs) for code in sequence]
        assert picked == wanted
        assert ours.getstate() == theirs.getstate()  # the same RNG stream
        assert any(vp is None for vp in picked)
        assert sum(vp is not None for vp in picked) > len(sequence) // 3
