"""Whois registry over all allocated address space.

Unlike BGP-derived mapping, whois covers allocations that are never
announced — the paper manually resolved several such addresses (IXP LANs
like NL-IX's 193.238.116.0/22) through whois.  Resolution is slower and
coarser in practice, which is why the pipeline uses it last.
"""

from __future__ import annotations

import bisect
import ipaddress
from dataclasses import dataclass
from typing import Optional

IPLike = ipaddress.IPv4Address | str | int


@dataclass(frozen=True)
class WhoisRecord:
    """One allocation: who holds this block."""

    network: ipaddress.IPv4Network
    org_name: str
    asn: Optional[int]  # registered origin, when the org operates an AS


class WhoisRegistry:
    """Exact-allocation registry with longest-match lookup.

    Records are kept longest prefix first; among equal lengths the
    first-registered record comes first, and so wins a lookup.
    """

    def __init__(self, records: list[WhoisRecord] | None = None) -> None:
        self._records: list[WhoisRecord] = []
        for record in records or []:
            self.register(record)

    def register(self, record: WhoisRecord) -> None:
        # insort_right places the record after every equal-length one
        bisect.insort(
            self._records, record, key=lambda r: -r.network.prefixlen
        )

    def lookup(self, ip: IPLike) -> Optional[WhoisRecord]:
        address = ipaddress.IPv4Address(ip)
        for record in self._records:
            if address in record.network:
                return record
        return None

    def lookup_asn(self, ip: IPLike) -> Optional[int]:
        record = self.lookup(ip)
        return record.asn if record else None

    def __len__(self) -> int:
        return len(self._records)


def whois_from_scenario(scenario) -> WhoisRegistry:
    """Registry covering every AS prefix and every IXP LAN (announced or
    not)."""
    registry = WhoisRegistry()
    for asn, prefix in scenario.prefixes.items():
        registry.register(
            WhoisRecord(
                network=prefix, org_name=scenario.name_of(asn), asn=asn
            )
        )
    for ixp in scenario.ixps:
        registry.register(
            WhoisRecord(network=ixp.lan, org_name=ixp.name, asn=ixp.asn)
        )
    return registry
