"""Router-level expansion of AS-level forwarding paths.

Cloud traceroutes observe: a few cloud-internal hops (often hidden by
tunneling), the *neighbor's* border interface — addressed either out of the
neighbor's own space (PNI) or out of an exchange LAN (public peering) —
then one ingress interface per subsequent AS, and finally the destination.
This module turns an AS path plus the scenario's interconnect records into
that hop sequence, applying the artifact model along the way, and writes
it as one row of a :class:`~repro.traceroute.model.TraceTable`.
"""

from __future__ import annotations

import random

from ..geo.distance import haversine_km
from ..netgen.addressing import host_int, router_int
from ..netgen.scenario import Interconnect, InternetScenario
from .artifacts import ArtifactModel
from .model import NO_REPLY, TraceTable, Traceroute, VantagePoint


def nearest_interconnect(
    scenario: InternetScenario,
    cloud_asn: int,
    neighbor_asn: int,
    vantage: VantagePoint,
) -> Interconnect:
    """The interconnect with ``neighbor_asn`` closest to the VM's city."""
    links = scenario.interconnects.get((cloud_asn, neighbor_asn))
    if not links:
        raise KeyError(
            f"no interconnect between AS{cloud_asn} and AS{neighbor_asn}"
        )
    return min(
        links,
        key=lambda link: haversine_km(
            link.city.lat, link.city.lon, vantage.city.lat, vantage.city.lon
        ),
    )


class PathExpander:
    """Writes AS paths as traceroute rows, each address computed once.

    Every address a row holds is a function of one AS (its ingress
    router, its probed host), of one (cloud, VM) (the two interior
    hops), or of the interconnect nearest the VM, which depends only on
    (cloud, neighbor, VM city).  The expander memoizes each of them, so
    after warm-up a hop costs a dictionary read; only the artifact draws
    touch the RNG, in the campaign's fixed order.
    """

    def __init__(
        self, scenario: InternetScenario, artifacts: ArtifactModel
    ) -> None:
        self.scenario = scenario
        self.artifacts = artifacts
        #: (cloud, neighbor, VM city) → distance to the nearest
        #: interconnect (inf when there is none)
        self.exit_km: dict[tuple[int, int, str], float] = {}
        self._nearest: dict[tuple[int, int, str], Interconnect] = {}
        self._ingress: dict[int, int] = {}
        self._host: dict[int, int] = {}
        self._interior: dict[tuple[int, int], tuple[int, int]] = {}

    def exit_distance(self, neighbor: int, vantage: VantagePoint) -> float:
        """Distance from the VM to its nearest interconnect with
        ``neighbor`` (inf for a neighbor reached without one)."""
        key = (vantage.cloud_asn, neighbor, vantage.city.code)
        distance = self.exit_km.get(key)
        if distance is None:
            try:
                link = self.nearest(neighbor, vantage)
            except KeyError:
                distance = float("inf")
            else:
                distance = haversine_km(
                    link.city.lat, link.city.lon,
                    vantage.city.lat, vantage.city.lon,
                )
            self.exit_km[key] = distance
        return distance

    def nearest(self, neighbor: int, vantage: VantagePoint) -> Interconnect:
        """:func:`nearest_interconnect`, memoized."""
        key = (vantage.cloud_asn, neighbor, vantage.city.code)
        link = self._nearest.get(key)
        if link is None:
            link = self._nearest[key] = nearest_interconnect(
                self.scenario, key[0], neighbor, vantage
            )
        return link

    def _host_of(self, asn: int) -> int:
        """The probed address of ``asn``: host 1 of its prefix."""
        ip = self._host.get(asn)
        if ip is None:
            ip = self._host[asn] = host_int(self.scenario.prefixes[asn], 1)
        return ip

    def _ingress_of(self, asn: int) -> int:
        ip = self._ingress.get(asn)
        if ip is None:
            ip = self._ingress[asn] = router_int(
                self.scenario.prefixes[asn], asn % 64, 0
            )
        return ip

    def write(
        self,
        table: TraceTable,
        vantage: VantagePoint,
        as_path: tuple[int, ...],
    ) -> None:
        """Expand ``as_path`` (cloud first, destination last) into one
        row of ``table``."""
        if len(as_path) < 2:
            raise ValueError("AS path must include the cloud and a destination")
        cloud = vantage.cloud_asn
        if as_path[0] != cloud:
            raise ValueError("AS path must start at the vantage cloud")
        dst_asn = as_path[-1]
        dst_ip = self._host_of(dst_asn)
        artifacts = self.artifacts
        if artifacts.drop_whole_traceroute():
            table.add(vantage.index, dst_asn, dst_ip, False, (), as_path)
            return

        hops: list[int] = []
        # cloud interior (possibly tunneled away)
        if not artifacts.suppress_cloud_interior():
            key = (cloud, vantage.index)
            interior = self._interior.get(key)
            if interior is None:
                prefix = self.scenario.prefixes[cloud]
                interior = self._interior[key] = (
                    router_int(prefix, vantage.index, 0),
                    router_int(prefix, vantage.index, 1),
                )
            hops.extend(interior)

        # neighbor border interface
        border = artifacts.border_address(self.nearest(as_path[1], vantage))
        hops.append(NO_REPLY if border is None else int(border))

        # subsequent transit ASes, then the destination when it is not
        # the direct neighbor: one ingress interface each
        unresponsive = artifacts.transit_unresponsive
        ingress = self._ingress_of
        for asn in as_path[2:]:
            hops.append(NO_REPLY if unresponsive() else ingress(asn))
        hops.append(dst_ip)
        table.add(vantage.index, dst_asn, dst_ip, True, hops, as_path)


def expand_path(
    scenario: InternetScenario,
    artifacts: ArtifactModel,
    rng: random.Random,
    vantage: VantagePoint,
    as_path: tuple[int, ...],
) -> Traceroute:
    """Expand an AS path (cloud first, destination last) into a traceroute.

    The artifacts draw from their own ``rng``; the ``rng`` argument is
    unused and kept for callers that pass the campaign's."""
    table = TraceTable(vantage.cloud_asn, (vantage,))
    PathExpander(scenario, artifacts).write(table, vantage, as_path)
    return table[0]
