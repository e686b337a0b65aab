"""Traceroute data model (Scamper-like output, §4.1).

A campaign stores each cloud's traceroutes as one :class:`TraceTable` of
columns; :class:`Traceroute` and :class:`Hop` objects are built from a
row on access.
"""

from __future__ import annotations

import ipaddress
import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional, overload

from ..geo.cities import City

#: the hop-address column's mark for an unresponsive hop ('*'); no hop
#: ever answers from 0.0.0.0
NO_REPLY = 0


@dataclass(frozen=True)
class Hop:
    """One TTL step: a responding address, or an unresponsive '*'."""

    ttl: int
    ip: Optional[ipaddress.IPv4Address]

    @property
    def responded(self) -> bool:
        return self.ip is not None

    def __str__(self) -> str:
        return f"{self.ttl:2d}  {self.ip if self.ip else '*'}"


@dataclass(frozen=True)
class VantagePoint:
    """A measurement VM inside a cloud provider."""

    cloud_asn: int
    city: City
    index: int

    @property
    def label(self) -> str:
        return f"AS{self.cloud_asn}-vm{self.index}-{self.city.code}"


@dataclass
class Traceroute:
    """One measurement: VM → destination prefix.

    ``true_as_path`` carries the simulated forwarding path's AS sequence
    (cloud first, destination last) as ground truth for validation
    (Appendix A); a real campaign obviously would not have it.
    """

    vantage: VantagePoint
    dst_ip: ipaddress.IPv4Address
    dst_asn: int
    hops: list[Hop] = field(default_factory=list)
    reached: bool = False
    true_as_path: tuple[int, ...] = ()

    @property
    def cloud_asn(self) -> int:
        return self.vantage.cloud_asn

    def responding_ips(self) -> list[ipaddress.IPv4Address]:
        return [hop.ip for hop in self.hops if hop.ip is not None]

    def __str__(self) -> str:
        lines = [f"traceroute from {self.vantage.label} to {self.dst_ip}"]
        lines.extend(str(hop) for hop in self.hops)
        return "\n".join(lines)


class TraceTable(Sequence[Traceroute]):
    """One cloud's traceroutes as columns, one row per measurement.

    Row *t* was measured from VM ``vm[t]`` (a key of ``vantages``) toward
    ``dst_asn[t]``, whose probed host address is ``dst_ip[t]``, and
    ``reached[t]`` says whether it got there.  Its hop addresses are
    ``hop_ip[hop_off[t]:hop_off[t + 1]]``, TTL 1 first, with
    :data:`NO_REPLY` for a '*'; its true AS path is
    ``path[path_off[t]:path_off[t + 1]]``.  Addresses are ``uint32``.

    Indexing builds the row's :class:`Traceroute`, slicing gives a new
    table, and two tables are equal when their columns are.
    """

    def __init__(
        self, cloud_asn: int, vantages: Iterable[VantagePoint]
    ) -> None:
        self.cloud_asn = cloud_asn
        self.vantages = {vp.index: vp for vp in vantages}
        self.vm = array("H")
        self.dst_asn = array("I")
        self.dst_ip = array("I")
        self.reached = bytearray()
        self.hop_ip = array("I")
        self.hop_off = array("I", (0,))
        self.path = array("I")
        self.path_off = array("I", (0,))

    def add(
        self,
        vm: int,
        dst_asn: int,
        dst_ip: int,
        reached: bool,
        hops: Iterable[int],
        path: Iterable[int],
    ) -> None:
        """Append one row."""
        self.vm.append(vm)
        self.dst_asn.append(dst_asn)
        self.dst_ip.append(dst_ip)
        self.reached.append(reached)
        self.hop_ip.extend(hops)
        self.hop_off.append(len(self.hop_ip))
        self.path.extend(path)
        self.path_off.append(len(self.path))

    def as_path(self, t: int) -> tuple[int, ...]:
        """Row *t*'s true AS path, cloud first."""
        return tuple(self.path[self.path_off[t] : self.path_off[t + 1]])

    def __len__(self) -> int:
        return len(self.vm)

    @overload
    def __getitem__(self, key: int) -> Traceroute: ...

    @overload
    def __getitem__(self, key: slice) -> "TraceTable": ...

    def __getitem__(self, key):
        if isinstance(key, slice):
            out = TraceTable(self.cloud_asn, self.vantages.values())
            hop_off, path_off = self.hop_off, self.path_off
            for t in range(len(self))[key]:
                out.add(
                    self.vm[t],
                    self.dst_asn[t],
                    self.dst_ip[t],
                    self.reached[t],
                    self.hop_ip[hop_off[t] : hop_off[t + 1]],
                    self.path[path_off[t] : path_off[t + 1]],
                )
            return out
        t = operator.index(key)
        if t < 0:
            t += len(self)
        if not 0 <= t < len(self):
            raise IndexError("trace index out of range")
        ips = self.hop_ip[self.hop_off[t] : self.hop_off[t + 1]]
        return Traceroute(
            vantage=self.vantages[self.vm[t]],
            dst_ip=ipaddress.IPv4Address(self.dst_ip[t]),
            dst_asn=self.dst_asn[t],
            hops=[
                Hop(ttl, None if ip == NO_REPLY else ipaddress.IPv4Address(ip))
                for ttl, ip in enumerate(ips, 1)
            ],
            reached=bool(self.reached[t]),
            true_as_path=self.as_path(t),
        )

    def __iter__(self) -> Iterator[Traceroute]:
        for t in range(len(self)):
            yield self[t]

    def _columns(self) -> tuple:
        return (
            self.cloud_asn,
            self.vantages,
            self.vm,
            self.dst_asn,
            self.dst_ip,
            self.reached,
            self.hop_ip,
            self.hop_off,
            self.path,
            self.path_off,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceTable):
            return NotImplemented
        return self._columns() == other._columns()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TraceTable(AS{self.cloud_asn}, {len(self)} traces)"
