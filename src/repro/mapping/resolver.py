"""The paper's iterative IP-to-AS resolution cascade (§4.1, §5).

The final methodology resolves each traceroute hop by consulting PeeringDB
first (peering LANs often use addresses that resolve wrongly — or not at
all — in BGP-derived data), then the Team Cymru service, then whois.  The
earlier methodology iterations used different orders; the order is a
constructor argument so the §5 ablation can replay the whole trajectory.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Optional

from .ipasn import IpAsnService
from .peeringdb import PeeringDB
from .whois import WhoisRegistry

IPLike = ipaddress.IPv4Address | str | int

#: The final (§5) resolution order.
FINAL_ORDER: tuple[str, ...] = ("peeringdb", "cymru", "whois")
#: The initial approach: BGP-derived mapping only.
INITIAL_ORDER: tuple[str, ...] = ("cymru",)


@dataclass(frozen=True)
class ResolvedHop:
    """Outcome of resolving one hop address."""

    asn: int
    source: str  # which service answered


class IterativeResolver:
    """Resolve addresses through an ordered cascade of services.

    Answers are memoized by the address's integer value, so a resolver
    shared across traceroutes (one per inference stage, as
    :func:`~repro.neighbors.infer_all_clouds` does) runs the cascade once
    per distinct address however many hops carry it.  The services are
    treated as read-only once wrapped: nothing announces, withdraws or
    registers on them after :func:`resolver_from_scenario` builds the
    cascade, so the memo cannot go stale.  Callers that mutate a service
    must build a new resolver.
    """

    def __init__(
        self,
        cymru: IpAsnService,
        peeringdb: PeeringDB,
        whois: WhoisRegistry,
        order: tuple[str, ...] = FINAL_ORDER,
    ) -> None:
        unknown = set(order) - {"peeringdb", "cymru", "whois"}
        if unknown:
            raise ValueError(f"unknown resolution services: {sorted(unknown)}")
        if not order:
            raise ValueError("resolution order must not be empty")
        self.cymru = cymru
        self.peeringdb = peeringdb
        self.whois = whois
        self.order = tuple(order)
        self._memo: dict[int, Optional[ResolvedHop]] = {}

    def resolve(self, ip: IPLike) -> Optional[ResolvedHop]:
        """First successful resolution in cascade order, else ``None``."""
        # an int (a trace table's address column) is the key as it is;
        # int(IPv4Address) reads the stored value, while handing the
        # address object itself to IPv4Address() would round-trip it
        # through str
        if isinstance(ip, int):
            address = ip
        elif isinstance(ip, ipaddress.IPv4Address):
            address = int(ip)
        else:
            address = int(ipaddress.IPv4Address(ip))
        memo = self._memo
        if address in memo:
            return memo[address]
        answer = None
        for service in self.order:
            asn = self._query(service, address)
            if asn is not None:
                answer = ResolvedHop(asn=asn, source=service)
                break
        memo[address] = answer
        return answer

    def _query(self, service: str, address: int) -> Optional[int]:
        if service == "peeringdb":
            return self.peeringdb.ip_to_asn(address)
        if service == "cymru":
            return self.cymru.lookup(address)
        return self.whois.lookup_asn(address)


def resolver_from_scenario(
    scenario, order: tuple[str, ...] = FINAL_ORDER
) -> IterativeResolver:
    """Build the full cascade over a scenario's address plan."""
    from .ipasn import cymru_from_scenario
    from .peeringdb import peeringdb_from_scenario
    from .whois import whois_from_scenario

    return IterativeResolver(
        cymru=cymru_from_scenario(scenario),
        peeringdb=peeringdb_from_scenario(scenario),
        whois=whois_from_scenario(scenario),
        order=order,
    )
