"""The traceroute campaign runner (Scamper from cloud VMs, §4.1).

For every destination AS we simulate the announcement of its prefix over
the ground-truth topology, then walk each cloud VM's tied-best forwarding
DAG toward it.  Clouds with a global WAN egress anywhere (cold potato);
Amazon's default early exit is modeled by choosing, among the tied-best
next hops, the one whose interconnect is closest to the VM — so distant
VMs take different first hops, exactly the behaviour §5 credits for both
extra discovered peers and extra accumulated error.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from typing import Optional

from ..bgpsim.cache import RoutingStateCache
from ..bgpsim.routes import RoutingState
from ..geo.distance import haversine_km
from ..netgen.scenario import InternetScenario
from .artifacts import ArtifactModel
from .model import Traceroute, VantagePoint
from .pathsim import expand_path


def vantage_points(
    scenario: InternetScenario, cloud_asn: int
) -> list[VantagePoint]:
    """The measurement VMs of a cloud, one per datacenter metro."""
    cities = scenario.vm_cities.get(cloud_asn, ())
    return [
        VantagePoint(cloud_asn=cloud_asn, city=city, index=i)
        for i, city in enumerate(cities)
    ]


class TracerouteCampaign:
    """Runs (and caches routing state for) a full measurement campaign.

    Each cloud's destinations are propagated up front in bit-parallel
    batches (the cache's ``prefetch``); the measurement walk then draws
    from one RNG stream in a fixed order, so every emitted traceroute is
    deterministic for a given seed.  ``cache_size`` bounds the
    routing-state cache (see :class:`~repro.bgpsim.cache.RoutingStateCache`);
    the default keeps every destination's state, matching the historical
    behaviour.
    """

    def __init__(
        self,
        scenario: InternetScenario,
        seed: int = 1,
        cache_size: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.scenario = scenario
        self.rng = random.Random(seed)
        self.artifacts = ArtifactModel(
            scenario=scenario,
            rates=scenario.config.artifacts,
            rng=self.rng,
        )
        self._states = RoutingStateCache(
            scenario.graph, maxsize=cache_size, engine=engine
        )
        # exit distances depend only on (cloud, neighbor, VM city), not on
        # the destination — memoized across the whole campaign
        self._exit_km: dict[tuple[int, int, str], float] = {}

    # -- routing -------------------------------------------------------------
    def state_for(self, dst_asn: int) -> RoutingState:
        return self._states.state_for(dst_asn)

    def cache_stats(self):
        """Hit/miss/eviction counters of the routing-state cache."""
        return self._states.stats()

    def _usable_from(self, vantage: VantagePoint, neighbor: int) -> bool:
        """Is this neighbor's route usable from the VM's location?

        Route-server peer routes are only selected at the PoP where the
        session lives (§5: peers missed by the measurements provide routes
        to a single PoP far from the datacenters).
        """
        links = self.scenario.interconnects.get(
            (vantage.cloud_asn, neighbor)
        )
        if not links:
            return True  # providers etc. reached through the backbone
        return any(
            not link.route_server or link.city.code == vantage.city.code
            for link in links
        )

    def _choose_first_hop(
        self,
        vantage: VantagePoint,
        state: RoutingState,
        parents: Iterable[int],
        wan_egress: bool,
    ) -> int:
        candidates = [
            p for p in sorted(parents) if self._usable_from(vantage, p)
        ]
        if not candidates:
            # fall back to any transit provider holding a route
            providers = [
                p
                for p in sorted(
                    self.scenario.graph.providers(vantage.cloud_asn)
                )
                if state.has_route(p)
            ]
            candidates = providers or sorted(parents)
        if wan_egress or len(candidates) == 1:
            return self.rng.choice(candidates)
        # early exit: nearest interconnect to this VM wins (hot potato)
        def exit_distance(neighbor: int) -> float:
            key = (vantage.cloud_asn, neighbor, vantage.city.code)
            distance = self._exit_km.get(key)
            if distance is not None:
                return distance
            links = self.scenario.interconnects.get(
                (vantage.cloud_asn, neighbor)
            )
            if not links:
                distance = float("inf")
            else:
                distance = min(
                    haversine_km(
                        link.city.lat, link.city.lon,
                        vantage.city.lat, vantage.city.lon,
                    )
                    for link in links
                )
            self._exit_km[key] = distance
            return distance

        return min(candidates, key=lambda n: (exit_distance(n), n))

    def _deviated_first_hop(
        self, vantage: VantagePoint, state: RoutingState
    ) -> Optional[int]:
        """A traffic-engineered (non-best) exit via a transit provider."""
        providers = [
            p
            for p in sorted(self.scenario.graph.providers(vantage.cloud_asn))
            if state.has_route(p)
        ]
        if not providers:
            return None
        return self.rng.choice(providers)

    def forwarding_path(
        self, vantage: VantagePoint, dst_asn: int, wan_egress: bool
    ) -> Optional[tuple[int, ...]]:
        """The AS path the VM's traffic takes toward ``dst_asn``.

        Usually a tied-best Gao-Rexford path; occasionally (per the
        ``policy_deviation`` artifact rate, amplified for early-exit
        clouds) a valid but non-best path via a transit provider.
        """
        cloud = vantage.cloud_asn
        if dst_asn == cloud:
            return None
        state = self.state_for(dst_asn)
        route = state.route(cloud)
        if route is None:
            return None
        deviation = self.scenario.config.artifacts.policy_deviation
        if not wan_egress:
            deviation *= 3.0
        node: Optional[int] = None
        if self.rng.random() < deviation:
            node = self._deviated_first_hop(vantage, state)
        if node is None:
            node = self._choose_first_hop(
                vantage, state, route.parents, wan_egress
            )
        path = [cloud, node]
        while node != dst_asn:
            # the lazy per-AS accessor keeps compiled states compact: the
            # walk touches a handful of ASes, not the whole routes dict
            parents = sorted(state.route(node).parents)
            node = self.rng.choice(parents)
            path.append(node)
        return tuple(path)

    # -- campaign --------------------------------------------------------------
    def measure(
        self, vantage: VantagePoint, dst_asn: int, wan_egress: bool
    ) -> Optional[Traceroute]:
        path = self.forwarding_path(vantage, dst_asn, wan_egress)
        if path is None:
            return None
        return expand_path(
            self.scenario, self.artifacts, self.rng, vantage, path
        )

    def run_cloud(
        self,
        cloud_asn: int,
        destinations: Optional[Sequence[int]] = None,
    ) -> list[Traceroute]:
        """Measure from every VM of one cloud to every destination AS."""
        scenario = self.scenario
        profile = next(
            p for p in scenario.config.clouds if p.asn == cloud_asn
        )
        vms = vantage_points(scenario, cloud_asn)
        if destinations is None:
            destinations = sorted(
                asn for asn in scenario.graph if asn != cloud_asn
            )
        self._states.prefetch(
            dst for dst in destinations if dst != cloud_asn
        )
        traces: list[Traceroute] = []
        for dst in destinations:
            if dst == cloud_asn:
                continue
            for vm in vms:
                trace = self.measure(vm, dst, profile.wan_egress)
                if trace is not None:
                    traces.append(trace)
        return traces

    def run_all(
        self, destinations: Optional[Sequence[int]] = None
    ) -> dict[int, list[Traceroute]]:
        """Run the full campaign for every cloud in the scenario."""
        return {
            asn: self.run_cloud(asn, destinations)
            for asn in self.scenario.cloud_asns()
        }
