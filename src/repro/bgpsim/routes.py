"""Route data model for the Gao-Rexford propagation engine.

Preference follows the standard model the paper enforces (§6.1): customer
routes over peer routes over provider routes, then shortest AS-path, with
**all ties kept** (no arbitrary tie-breaking).  ``RoutingState`` captures,
for every AS, the equivalence class of its tied-best routes: the route
class, the AS-path length, the set of next-hop neighbors ("parents"), and
the set of announcement seeds (origins) those tied routes lead to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional


class RouteClass(enum.IntEnum):
    """Gao-Rexford route preference classes; lower value = more preferred."""

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2


@dataclass(frozen=True)
class Seed:
    """One announcement source for a prefix.

    ``initial_length`` is the AS-path length already carried when the seed
    exports: 0 for a true origin; for a route *leak* it is the length of the
    leaker's legitimate path to the origin (the leaker re-announces a learned
    route, so competing paths start longer).

    ``export_to`` optionally restricts which neighbors receive the seed's own
    announcement (the paper's "announce to Tier-1, Tier-2, and providers"
    configuration); ``None`` means announce to all neighbors.
    """

    asn: int
    key: str = "origin"
    initial_length: int = 0
    export_to: Optional[frozenset[int]] = None

    def __post_init__(self) -> None:
        if self.initial_length < 0:
            raise ValueError("initial_length must be >= 0")

    def exports_to(self, neighbor: int) -> bool:
        return self.export_to is None or neighbor in self.export_to


@dataclass
class NodeRoute:
    """Tied-best route summary at one AS."""

    route_class: RouteClass
    length: int
    parents: set[int] = field(default_factory=set)
    origins: set[str] = field(default_factory=set)

    def better_than(self, route_class: RouteClass, length: int) -> bool:
        return (self.route_class, self.length) < (route_class, length)

    def ties_with(self, route_class: RouteClass, length: int) -> bool:
        return (self.route_class, self.length) == (route_class, length)


class RoutingState:
    """Result of propagating one prefix over the AS graph."""

    def __init__(self, seeds: tuple[Seed, ...]) -> None:
        self.seeds = seeds
        self.seed_asns = frozenset(s.asn for s in seeds)
        self.routes: dict[int, NodeRoute] = {}

    def has_route(self, asn: int) -> bool:
        return asn in self.routes

    def route(self, asn: int) -> Optional[NodeRoute]:
        return self.routes.get(asn)

    def route_class(self, asn: int) -> Optional[RouteClass]:
        """Route class at ``asn`` (None when unrouted); array-backed
        subclasses answer this without materializing ``routes``."""
        node = self.route(asn)
        return node.route_class if node else None

    def reachable_ases(self) -> frozenset[int]:
        """ASes holding a route, excluding the seeds themselves."""
        return frozenset(self.routes) - self.seed_asns

    def origins_at(self, asn: int) -> frozenset[str]:
        """Seed keys reachable via ``asn``'s tied-best routes."""
        node = self.routes.get(asn)
        return frozenset(node.origins) if node else frozenset()

    def path_length(self, asn: int) -> Optional[int]:
        node = self.routes.get(asn)
        return node.length if node else None

    def ases_with_origin(self, key: str) -> frozenset[int]:
        """ASes whose tied-best routes lead to the seed named ``key``.

        Includes the seed itself; array-backed subclasses override this
        so leak consumers never materialize the full routes dict.
        """
        return frozenset(
            asn for asn, node in self.routes.items() if key in node.origins
        )

    # ------------------------------------------------------------------
    # best-path DAG utilities
    # ------------------------------------------------------------------
    def count_best_paths(self, asn: int) -> int:
        """Number of distinct tied-best AS paths from ``asn`` to any seed.

        Iterative memoized traversal (same shape as the engine's origin
        fill) — a recursive count would blow Python's recursion limit on
        deep provider chains.
        """
        routes = self.routes
        if asn not in routes:
            return 0
        seed_asns = self.seed_asns
        memo: dict[int, int] = {}
        stack = [asn]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if node in seed_asns:
                memo[node] = 1
                stack.pop()
                continue
            parents = routes[node].parents
            missing = [p for p in parents if p not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[node] = sum(memo[p] for p in parents)
            stack.pop()
        return memo[asn]

    def enumerate_best_paths(
        self, asn: int, limit: int = 1000
    ) -> Iterator[tuple[int, ...]]:
        """Yield tied-best AS paths (asn, ..., seed); bounded by ``limit``."""
        if asn not in self.routes:
            return
        emitted = 0
        stack: list[tuple[int, tuple[int, ...]]] = [(asn, (asn,))]
        while stack and emitted < limit:
            node, path = stack.pop()
            if node in self.seed_asns:
                yield path
                emitted += 1
                continue
            for parent in sorted(self.routes[node].parents):
                stack.append((parent, path + (parent,)))

    def contains_path(self, path: tuple[int, ...]) -> bool:
        """True if ``path`` (receiver first, origin last) is a tied-best path.

        Reads each hop through :meth:`route`, so array-backed subclasses
        answer without materializing the full ``routes`` dict.
        """
        if len(path) < 1 or path[-1] not in self.seed_asns:
            return False
        for node, parent in zip(path, path[1:]):
            route = self.route(node)
            if route is None or parent not in route.parents:
                return False
        return True
