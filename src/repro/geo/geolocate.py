"""Active router geolocation (Appendix D).

The paper geolocates traceroute IPs with a RIPE-IPmap-style technique:

1. derive *candidate* ⟨facility, city⟩ locations for the address's AS from
   PeeringDB, filtered by rDNS location hints when present;
2. for each candidate city, pick a RIPE-Atlas-style vantage point within
   40 km whose AS is present at the facility (or in the customer cone of
   one that is), skipping VPs with suspicious self-reported locations;
3. ping the address from each VP; an RTT ≤ 1 ms pins the address to the
   VP's city (≤ ~100 km at the speed of light in fiber).

Everything here is simulated against scenario ground truth: VP and router
locations are known, and the ping simulator returns physically consistent
RTTs, so the algorithm's accuracy is measurable exactly.
"""

from __future__ import annotations

import ipaddress
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Optional

from ..mapping.peeringdb import PeeringDB
from ..mapping.resolver import IterativeResolver
from .cities import WORLD_CITIES, City, city_by_code
from .distance import haversine_km, rtt_floor_ms

#: maximum VP-to-candidate-city distance (Appendix D step 2)
VP_RADIUS_KM = 40.0
#: RTT threshold pinning a target to the VP's city (Appendix D step 3)
RTT_THRESHOLD_MS = 1.0


@dataclass(frozen=True)
class AtlasVP:
    """A RIPE-Atlas-style vantage point."""

    vp_id: int
    asn: int
    city: City  # true location
    reported_city: City  # self-reported; may be wrong ("suspicious")

    @property
    def suspicious(self) -> bool:
        """Ground-truth check the paper approximates with Atlas metadata."""
        return self.city.code != self.reported_city.code


class PingSimulator:
    """Simulated latency measurements between VPs and target addresses."""

    def __init__(
        self,
        target_cities: Mapping[int, City],
        rng: random.Random,
        loss_rate: float = 0.02,
        jitter_ms: float = 0.15,
    ) -> None:
        self._targets = dict(target_cities)
        self._rng = rng
        self.loss_rate = loss_rate
        self.jitter_ms = jitter_ms
        self.probe_count = 0

    @classmethod
    def from_routers(
        cls, routers: Iterable, rng: random.Random, **kwargs
    ) -> "PingSimulator":
        """Build target locations from :class:`~repro.pops.RouterRecord`s."""
        targets = {}
        for router in routers:
            for ip in router.interfaces:
                targets[int(ip)] = router.city
        return cls(targets, rng, **kwargs)

    def rtt_ms(
        self, vp: AtlasVP, ip: ipaddress.IPv4Address | int
    ) -> Optional[float]:
        """Round-trip time from ``vp`` to ``ip``; None on loss/unknown."""
        self.probe_count += 1
        city = self._targets.get(int(ipaddress.IPv4Address(ip)))
        if city is None or self._rng.random() < self.loss_rate:
            return None
        distance = haversine_km(vp.city.lat, vp.city.lon, city.lat, city.lon)
        return rtt_floor_ms(distance) + self._rng.uniform(0, self.jitter_ms)


def atlas_from_scenario(
    scenario,
    rng: random.Random,
    vps_per_city: int = 2,
    suspicious_rate: float = 0.05,
) -> list[AtlasVP]:
    """Deploy Atlas-style VPs in every city hosting an IXP or access AS.

    A ``suspicious_rate`` fraction self-report a wrong city, reproducing
    the bad-metadata problem the paper works around with ground-truth VP
    lists.
    """
    from ..netgen.scenario import ASKind

    hosts: dict[str, list[int]] = {}
    for asn, info in scenario.as_info.items():
        if info.kind is ASKind.ACCESS and asn in scenario.graph:
            hosts.setdefault(info.home_city.code, []).append(asn)
    vps: list[AtlasVP] = []
    vp_id = 0
    for code in sorted(hosts):
        city = city_by_code(code)
        for _ in range(vps_per_city):
            asn = rng.choice(sorted(hosts[code]))
            if rng.random() < suspicious_rate:
                reported = rng.choice(WORLD_CITIES)
            else:
                reported = city
            vps.append(
                AtlasVP(vp_id=vp_id, asn=asn, city=city, reported_city=reported)
            )
            vp_id += 1
    return vps


@dataclass
class GeolocationResult:
    """Outcome for one address."""

    ip: ipaddress.IPv4Address
    city_code: Optional[str]
    candidates: tuple[str, ...]
    probes_used: int

    @property
    def located(self) -> bool:
        return self.city_code is not None


class Geolocator:
    """Appendix D's candidate-then-verify geolocation pipeline."""

    def __init__(
        self,
        peeringdb: PeeringDB,
        resolver: IterativeResolver,
        vps: Iterable[AtlasVP],
        pinger: PingSimulator,
        presence: Mapping[str, frozenset[int]] | None = None,
        rdns_hint=None,  # callable: ip -> city code or None
    ) -> None:
        self.peeringdb = peeringdb
        self.resolver = resolver
        self.pinger = pinger
        self.rdns_hint = rdns_hint
        self.presence = dict(presence or {})
        self._vps_by_city: dict[str, list[AtlasVP]] = {}
        for vp in vps:
            if vp.suspicious:
                continue  # paper: avoid VPs with suspicious locations
            self._vps_by_city.setdefault(vp.city.code, []).append(vp)
        # city code -> its eligible VPs sorted by vp_id, scanned once
        self._eligible: dict[str, list[AtlasVP]] = {}

    # -- step 1: candidate cities ------------------------------------------
    def candidates(self, ip) -> tuple[str, ...]:
        resolved = self.resolver.resolve(ip)
        if resolved is None:
            return ()
        cities = sorted(self.peeringdb.facility_cities(resolved.asn))
        hint = self.rdns_hint(ip) if self.rdns_hint else None
        if hint is not None:
            cities = [c for c in cities if c == hint] or [hint]
        return tuple(cities)

    # -- step 2: pick a VP near each candidate ------------------------------
    def _vp_for(self, code: str, rng: random.Random) -> Optional[AtlasVP]:
        eligible = self._eligible.get(code)
        if eligible is None:
            eligible = self._eligible[code] = self._eligible_vps(code)
        if not eligible:
            return None  # no draw: the RNG stream stays as it was
        return rng.choice(eligible)

    def _eligible_vps(self, code: str) -> list[AtlasVP]:
        """VPs within ``VP_RADIUS_KM`` of ``code`` that pass the presence
        filter, sorted by ``vp_id``; empty for an unknown code."""
        try:
            target = city_by_code(code)
        except KeyError:
            return []
        allowed = self.presence.get(code)
        eligible: list[AtlasVP] = []
        for vps in self._vps_by_city.values():
            for vp in vps:
                distance = haversine_km(
                    vp.city.lat, vp.city.lon, target.lat, target.lon
                )
                if distance > VP_RADIUS_KM:
                    continue
                if allowed is not None and vp.asn not in allowed:
                    continue
                eligible.append(vp)
        eligible.sort(key=lambda v: v.vp_id)
        return eligible

    # -- step 3: verify with pings -------------------------------------------
    def geolocate(
        self, ip, rng: random.Random | None = None
    ) -> GeolocationResult:
        rng = rng or random.Random(0)
        ip = ipaddress.IPv4Address(ip)
        candidates = self.candidates(ip)
        probes = 0
        for code in candidates:
            vp = self._vp_for(code, rng)
            if vp is None:
                continue
            rtt = self.pinger.rtt_ms(vp, ip)
            probes += 1
            if rtt is not None and rtt <= RTT_THRESHOLD_MS:
                return GeolocationResult(
                    ip=ip, city_code=vp.city.code,
                    candidates=candidates, probes_used=probes,
                )
        return GeolocationResult(
            ip=ip, city_code=None, candidates=candidates, probes_used=probes
        )


def geolocate_routers(
    geolocator: Geolocator,
    routers: Iterable,
    rng: random.Random,
) -> dict[str, float]:
    """Accuracy summary over router interfaces with known true cities.

    Returns coverage (fraction located) and accuracy (fraction of located
    answers matching the true city).
    """
    located = 0
    correct = 0
    total = 0
    for router in routers:
        for ip in router.interfaces:
            total += 1
            result = geolocator.geolocate(ip, rng)
            if result.located:
                located += 1
                if result.city_code == router.city.code:
                    correct += 1
    return {
        "total": float(total),
        "coverage": located / total if total else 0.0,
        "accuracy": correct / located if located else 0.0,
    }
