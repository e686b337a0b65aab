"""PeeringDB model: exchanges, LAN memberships, and facility presence.

The paper uses PeeringDB three ways: (1) resolving peering-LAN addresses to
the member network (preferred over Cymru in the final methodology, §5);
(2) locating candidate PoP facilities (§4.2, Appendix D); (3) general
peering metadata.  This module models the relevant subset of PeeringDB's
schema — ``ix``/``ixlan``, ``netixlan``, and ``netfac`` records — populated
from a scenario.
"""

from __future__ import annotations

import ipaddress
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

IPLike = ipaddress.IPv4Address | str | int


@dataclass(frozen=True)
class IXLanRecord:
    """An exchange LAN (PeeringDB ``ixlan`` + its parent ``ix``)."""

    ixp_id: int
    name: str
    city_code: str
    lan: ipaddress.IPv4Network


@dataclass(frozen=True)
class NetIXLanRecord:
    """A network's port on an exchange LAN (PeeringDB ``netixlan``)."""

    asn: int
    ixp_id: int
    ip: ipaddress.IPv4Address


@dataclass(frozen=True)
class NetFacRecord:
    """A network's presence at a facility city (PeeringDB ``netfac``)."""

    asn: int
    city_code: str


class PeeringDB:
    """Queryable PeeringDB snapshot."""

    def __init__(
        self,
        ixlans: list[IXLanRecord] | None = None,
        netixlans: list[NetIXLanRecord] | None = None,
        netfacs: list[NetFacRecord] | None = None,
    ) -> None:
        self.ixlans = list(ixlans or [])
        self.netixlans = list(netixlans or [])
        self.netfacs = list(netfacs or [])
        self._by_ip: dict[int, int] = {
            int(rec.ip): rec.asn for rec in self.netixlans
        }
        self._lans = [(rec.lan, rec.ixp_id) for rec in self.ixlans]
        self._members: dict[int, set[int]] = defaultdict(set)
        self._facs: dict[int, set[str]] = defaultdict(set)
        for rec in self.netixlans:
            self._members[rec.ixp_id].add(rec.asn)
        for rec in self.netfacs:
            self._facs[rec.asn].add(rec.city_code)

    # -- address resolution -------------------------------------------------
    def ip_to_asn(self, ip: IPLike) -> Optional[int]:
        """Resolve a peering-LAN address to the member network's ASN."""
        return self._by_ip.get(int(ipaddress.IPv4Address(ip)))

    def lan_of(self, ip: IPLike) -> Optional[int]:
        """The exchange whose LAN contains ``ip``, if any."""
        address = ipaddress.IPv4Address(ip)
        for lan, ixp_id in self._lans:
            if address in lan:
                return ixp_id
        return None

    def is_ixp_address(self, ip: IPLike) -> bool:
        return self.lan_of(ip) is not None

    # -- membership / facilities ---------------------------------------------
    def members_of(self, ixp_id: int) -> frozenset[int]:
        return frozenset(self._members.get(ixp_id, ()))

    def exchanges_of(self, asn: int) -> frozenset[int]:
        return frozenset(
            ixp_id for ixp_id, members in self._members.items() if asn in members
        )

    def facility_cities(self, asn: int) -> frozenset[str]:
        """Candidate PoP cities for ``asn`` (Appendix D step 1)."""
        return frozenset(self._facs.get(asn, ()))


def peeringdb_from_scenario(
    scenario, facility_listing_rate: float = 0.85, seed: int = 5
) -> PeeringDB:
    """Build a PeeringDB snapshot from a scenario.

    All LAN memberships are listed (PeeringDB IX data is generally
    reliable); facility listings are sampled at ``facility_listing_rate``
    (operators under-register facilities), and networks configured without
    a PeeringDB presence (e.g. AT&T, §4.2) can be filtered by callers.
    """
    import random

    rng = random.Random(seed)
    ixlans = [
        IXLanRecord(
            ixp_id=ixp.ixp_id,
            name=ixp.name,
            city_code=ixp.city.code,
            lan=ixp.lan,
        )
        for ixp in scenario.ixps
    ]
    netixlans = [
        NetIXLanRecord(asn=member, ixp_id=ixp.ixp_id, ip=ixp.member_ip(member))
        for ixp in scenario.ixps
        for member in sorted(ixp.members)
    ]
    netfacs = []
    for label, cities in scenario.pop_footprints.items():
        asn = scenario.clouds.get(label) or scenario.transit_labels.get(label)
        if asn is None:
            continue
        for city in cities:
            if rng.random() < facility_listing_rate:
                netfacs.append(NetFacRecord(asn=asn, city_code=city.code))
    return PeeringDB(ixlans=ixlans, netixlans=netixlans, netfacs=netfacs)
