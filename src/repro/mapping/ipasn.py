"""Team-Cymru-style IP-to-ASN mapping (longest prefix match over BGP).

The real service answers from the global BGP table: an address resolves to
the origin AS of the longest announced prefix covering it.  Addresses in
unannounced space (many IXP LANs, §4.1/§5) get no answer — which is exactly
the failure mode that drove the paper's methodology changes.
"""

from __future__ import annotations

import ipaddress
from collections.abc import Iterable
from typing import Optional

IPLike = ipaddress.IPv4Address | str | int


class IpAsnService:
    """Longest-prefix-match resolver over announced prefixes."""

    def __init__(
        self,
        announcements: Iterable[tuple[ipaddress.IPv4Network, int]] = (),
    ) -> None:
        # prefixes bucketed by length; lookups probe longest-first
        self._by_length: dict[int, dict[int, int]] = {}
        for network, asn in announcements:
            self.announce(network, asn)

    def announce(self, network: ipaddress.IPv4Network, asn: int) -> None:
        """Register an announced prefix originated by ``asn``."""
        bucket = self._by_length.setdefault(network.prefixlen, {})
        key = int(network.network_address)
        existing = bucket.get(key)
        if existing is not None and existing != asn:
            raise ValueError(
                f"{network} already announced by AS{existing}"
            )
        bucket[key] = asn

    def withdraw(self, network: ipaddress.IPv4Network) -> None:
        """Remove an announcement (no-op if absent)."""
        self._by_length.get(network.prefixlen, {}).pop(
            int(network.network_address), None
        )

    def lookup(self, ip: IPLike) -> Optional[int]:
        """Origin ASN of the longest covering announced prefix, or None."""
        address = int(ipaddress.IPv4Address(ip))
        for length in sorted(self._by_length, reverse=True):
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            asn = self._by_length[length].get(address & mask)
            if asn is not None:
                return asn
        return None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_length.values())


def cymru_from_scenario(scenario) -> IpAsnService:
    """Build the Cymru view of a scenario: every AS prefix plus the
    *announced* IXP LANs (which resolve to the IXP's own ASN)."""
    service = IpAsnService()
    for asn, prefix in scenario.prefixes.items():
        service.announce(prefix, asn)
    for ixp in scenario.ixps:
        if ixp.announced:
            service.announce(ixp.lan, ixp.asn)
    return service
