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
from collections.abc import Sequence
from typing import Optional

from ..bgpsim.cache import RoutingStateCache
from ..bgpsim.routes import RoutingState
from ..netgen.scenario import InternetScenario
from .artifacts import ArtifactModel
from .model import TraceTable, Traceroute, VantagePoint
from .pathsim import PathExpander


def vantage_points(
    scenario: InternetScenario, cloud_asn: int
) -> list[VantagePoint]:
    """The measurement VMs of a cloud, one per datacenter metro."""
    cities = scenario.vm_cities.get(cloud_asn, ())
    return [
        VantagePoint(cloud_asn=cloud_asn, city=city, index=i)
        for i, city in enumerate(cities)
    ]


_UNSEEN = object()


class _ParentMemo(dict):
    """ASN → its sorted tied-best parents toward one destination (``None``
    when unrouted), read through the cache on first use of each AS.

    It holds the cache, not the state, so a bounded cache still frees
    evicted states; what it keeps is a pure function of the graph."""

    __slots__ = ("_cache", "_dst", "_routed")

    def __init__(self, cache: RoutingStateCache, dst: int) -> None:
        super().__init__()
        self._cache = cache
        self._dst = dst
        self._routed: dict[int, bool] = {}

    def __missing__(self, asn: int) -> Optional[tuple[int, ...]]:
        parents = self[asn] = self._cache.state_for(self._dst).sorted_parents(
            asn
        )
        return parents

    def routed(self, asn: int) -> bool:
        """Whether ``asn`` holds a route, without reading its parents."""
        parents = self.get(asn, _UNSEEN)
        if parents is not _UNSEEN:
            return parents is not None
        routed = self._routed.get(asn)
        if routed is None:
            routed = self._routed[asn] = self._cache.state_for(
                self._dst
            ).has_route(asn)
        return routed


class TracerouteCampaign:
    """Runs (and caches routing state for) a full measurement campaign.

    Each cloud's destinations are propagated up front in bit-parallel
    batches (the cache's ``prefetch``); the measurement walk then draws
    from one RNG stream in a fixed order, so every emitted traceroute is
    deterministic for a given seed.  ``cache_size`` bounds the
    routing-state cache (see :class:`~repro.bgpsim.cache.RoutingStateCache`);
    the default keeps every destination's state, matching the historical
    behaviour.

    Everything the walk and the expansion read that does not depend on
    the RNG is memoized for the campaign's lifetime: each destination's
    per-AS parents, each cloud's sorted providers, route-server
    usability and exit distances per (cloud, neighbor, VM city), and
    every hop address (see :class:`~repro.traceroute.pathsim.PathExpander`).
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
        self._expander = PathExpander(scenario, self.artifacts)
        self._parents: dict[int, _ParentMemo] = {}
        self._providers: dict[int, tuple[int, ...]] = {}
        self._usable: dict[tuple[int, int, str], bool] = {}

    # -- routing -------------------------------------------------------------
    def state_for(self, dst_asn: int) -> RoutingState:
        return self._states.state_for(dst_asn)

    def cache_stats(self):
        """Hit/miss/eviction counters of the routing-state cache."""
        return self._states.stats()

    def _parents_toward(self, dst_asn: int) -> _ParentMemo:
        memo = self._parents.get(dst_asn)
        if memo is None:
            memo = self._parents[dst_asn] = _ParentMemo(self._states, dst_asn)
        return memo

    def _usable_from(self, vantage: VantagePoint, neighbor: int) -> bool:
        """Is this neighbor's route usable from the VM's location?

        Route-server peer routes are only selected at the PoP where the
        session lives (§5: peers missed by the measurements provide routes
        to a single PoP far from the datacenters).
        """
        key = (vantage.cloud_asn, neighbor, vantage.city.code)
        usable = self._usable.get(key)
        if usable is None:
            links = self.scenario.interconnects.get(key[:2])
            # providers etc. without interconnect records are reached
            # through the backbone
            usable = self._usable[key] = not links or any(
                not link.route_server or link.city.code == key[2]
                for link in links
            )
        return usable

    def _routed_providers(
        self, cloud: int, parents: _ParentMemo
    ) -> list[int]:
        """The cloud's transit providers holding a route, ascending."""
        providers = self._providers.get(cloud)
        if providers is None:
            providers = self._providers[cloud] = tuple(
                sorted(self.scenario.graph.providers(cloud))
            )
        return [p for p in providers if parents.routed(p)]

    def _choose_first_hop(
        self,
        vantage: VantagePoint,
        parents: _ParentMemo,
        best: tuple[int, ...],
        wan_egress: bool,
    ) -> int:
        candidates = [p for p in best if self._usable_from(vantage, p)]
        if not candidates:
            # fall back to any transit provider holding a route
            candidates = (
                self._routed_providers(vantage.cloud_asn, parents)
                or list(best)
            )
        if wan_egress or len(candidates) == 1:
            return self.rng.choice(candidates)
        # early exit: nearest interconnect to this VM wins (hot potato)
        exit_distance = self._expander.exit_distance
        return min(
            candidates, key=lambda n: (exit_distance(n, vantage), n)
        )

    def _deviated_first_hop(
        self, vantage: VantagePoint, parents: _ParentMemo
    ) -> Optional[int]:
        """A traffic-engineered (non-best) exit via a transit provider."""
        providers = self._routed_providers(vantage.cloud_asn, parents)
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
        parents = self._parents_toward(dst_asn)
        best = parents[cloud]
        if best is None:
            return None
        rng = self.rng
        deviation = self.scenario.config.artifacts.policy_deviation
        if not wan_egress:
            deviation *= 3.0
        node: Optional[int] = None
        if rng.random() < deviation:
            node = self._deviated_first_hop(vantage, parents)
        if node is None:
            node = self._choose_first_hop(vantage, parents, best, wan_egress)
        path = [cloud, node]
        while node != dst_asn:
            node = rng.choice(parents[node])
            path.append(node)
        return tuple(path)

    # -- campaign --------------------------------------------------------------
    def _measure_into(
        self,
        table: TraceTable,
        vantage: VantagePoint,
        dst_asn: int,
        wan_egress: bool,
    ) -> None:
        path = self.forwarding_path(vantage, dst_asn, wan_egress)
        if path is not None:
            self._expander.write(table, vantage, path)

    def measure(
        self, vantage: VantagePoint, dst_asn: int, wan_egress: bool
    ) -> Optional[Traceroute]:
        """One traceroute, or ``None`` when the VM has no route."""
        table = TraceTable(vantage.cloud_asn, (vantage,))
        self._measure_into(table, vantage, dst_asn, wan_egress)
        return table[0] if table else None

    def run_cloud(
        self,
        cloud_asn: int,
        destinations: Optional[Sequence[int]] = None,
    ) -> TraceTable:
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
        table = TraceTable(cloud_asn, vms)
        measure_into = self._measure_into
        wan_egress = profile.wan_egress
        for dst in destinations:
            if dst == cloud_asn:
                continue
            for vm in vms:
                measure_into(table, vm, dst, wan_egress)
        return table

    def run_all(
        self, destinations: Optional[Sequence[int]] = None
    ) -> dict[int, TraceTable]:
        """Run the full campaign for every cloud in the scenario."""
        return {
            asn: self.run_cloud(asn, destinations)
            for asn in self.scenario.cloud_asns()
        }
