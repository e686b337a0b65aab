"""IPv4 address allocation for the synthetic Internet.

Every AS announces one prefix (the paper's supplemental campaign selects
one prefix per origin AS [19]); IXP LANs get /24s, a configurable fraction
of which are *not* announced in BGP — reproducing the NL-IX situation in
§4.1 where peering interfaces resolve only through PeeringDB/whois.

The first 16,384 ASes get /16s — IPv4 simply does not hold 70,000 /16s —
so the paper-scale ``full`` profile spills into a second, contiguous tier
of /20s.  Legacy indices keep their historical /16s byte-for-byte, so
every pre-existing profile's addressing is unchanged.
"""

from __future__ import annotations

import ipaddress
from collections.abc import Sequence

#: ASes get sequential /16s starting here (kept well clear of the IXP pool).
AS_PREFIX_BASE = int(ipaddress.IPv4Address("16.0.0.0"))
#: IXP LANs are /24s carved from this block (homage to NL-IX's 193.238/22).
IXP_LAN_BASE = int(ipaddress.IPv4Address("193.238.0.0"))
MAX_AS_PREFIXES = 16384  # /16 tier: 16.0.0.0-79.255.255.255
#: ASes past the /16 tier get sequential /20s from 80.0.0.0 (where the
#: /16 tier ends), still clear of the 193.238/16 IXP pool.
AS_PREFIX_EXT_BASE = AS_PREFIX_BASE + (MAX_AS_PREFIXES << 16)
#: /20s available before running into 160.0.0.0 (comfortable headroom
#: under the IXP pool): enough for ~1.3M extra ASes — every profile fits.
MAX_AS_PREFIXES_EXT = (
    int(ipaddress.IPv4Address("160.0.0.0")) - AS_PREFIX_EXT_BASE
) >> 12
MAX_IXP_LANS = 1024
#: Paper-scale profiles put thousands of members on one metro exchange —
#: far past a /24's 252 usable slots — so their LANs are /18s, carved
#: from 11.0.0.0 (below the AS-prefix space, which owns 16.0.0.0 up),
#: mirroring how the largest real exchanges outgrew /24 peering LANs.
IXP_LAN_WIDE_BASE = int(ipaddress.IPv4Address("11.0.0.0"))
MAX_IXP_LANS_WIDE = 256


def as_prefix(index: int) -> ipaddress.IPv4Network:
    """The prefix announced by the ``index``-th AS (allocation order).

    Indices below :data:`MAX_AS_PREFIXES` map to the historical /16s;
    higher indices map to the /20 extension tier.
    """
    if 0 <= index < MAX_AS_PREFIXES:
        return ipaddress.IPv4Network((AS_PREFIX_BASE + (index << 16), 16))
    ext = index - MAX_AS_PREFIXES
    if not 0 <= ext < MAX_AS_PREFIXES_EXT:
        raise ValueError(f"AS prefix index out of range: {index}")
    return ipaddress.IPv4Network((AS_PREFIX_EXT_BASE + (ext << 12), 20))


def ixp_lan(index: int, wide: bool = False) -> ipaddress.IPv4Network:
    """The peering LAN of the ``index``-th IXP.

    ``wide=False`` (every seed profile) keeps the historical /24s;
    ``wide=True`` (paper-scale profiles, where one metro exchange holds
    thousands of members) allocates /18s instead.
    """
    if wide:
        if not 0 <= index < MAX_IXP_LANS_WIDE:
            raise ValueError(f"wide IXP LAN index out of range: {index}")
        return ipaddress.IPv4Network((IXP_LAN_WIDE_BASE + (index << 14), 18))
    if not 0 <= index < MAX_IXP_LANS:
        raise ValueError(f"IXP LAN index out of range: {index}")
    return ipaddress.IPv4Network((IXP_LAN_BASE + (index << 8), 24))


def allocate_as_prefixes(asns: Sequence[int]) -> dict[int, ipaddress.IPv4Network]:
    """Deterministically assign one prefix per AS, in the given order."""
    return {asn: as_prefix(i) for i, asn in enumerate(asns)}


def host_int(prefix: ipaddress.IPv4Network, index: int) -> int:
    """The ``index``-th usable host address inside ``prefix``, as an int."""
    if index < 1 or index >= (1 << (32 - prefix.prefixlen)) - 1:
        raise ValueError(f"host index {index} out of range for {prefix}")
    return int(prefix.network_address) + index


def host_in(prefix: ipaddress.IPv4Network, index: int) -> ipaddress.IPv4Address:
    """The ``index``-th usable host address inside ``prefix``."""
    return ipaddress.IPv4Address(host_int(prefix, index))


def router_int(
    prefix: ipaddress.IPv4Network, router_id: int, interface: int = 0
) -> int:
    """:func:`router_ip` as an int."""
    offset = 256 + router_id * 8 + interface
    if offset < 0:
        raise ValueError(f"negative router address offset {offset}")
    if offset >= (1 << (32 - prefix.prefixlen)) - 1:
        raise ValueError("router address space exhausted")
    return int(prefix.network_address) + offset


def router_ip(
    prefix: ipaddress.IPv4Network, router_id: int, interface: int = 0
) -> ipaddress.IPv4Address:
    """A stable infrastructure address: router ``router_id``, interface
    ``interface`` inside the AS prefix (distinct from host space)."""
    return ipaddress.IPv4Address(router_int(prefix, router_id, interface))
