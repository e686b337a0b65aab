"""Route-leak resilience simulation (§8, with the erratum's semantics).

A misconfigured AS leaks the origin's prefix (re-announcing its learned
route to every neighbor); the leaked and legitimate routes then compete at
every AS under Gao-Rexford preference and AS-path length.  An AS is
*detoured* if **any** of its tied-best routes leads to the leaker (worst
case; no tie-breaking).  Peer locking is modeled per the erratum: a
peer-locking AS discards routes for the origin's prefix arriving from
anyone but the origin itself, so leaked routes can never propagate through
it — not merely never be announced to it.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

from ..bgpsim.engine import propagate
from ..bgpsim.parallel import graph_map
from ..bgpsim.policies import (
    LeakMode,
    hierarchy_only_seed,
    leak_seed,
    peer_lock_set,
)
from ..bgpsim.routes import Seed
from ..topology.asgraph import ASGraph
from ..topology.tiers import TierAssignment


class PeerLockSemantics(enum.Enum):
    """Erratum semantics (leak can never traverse a locking AS) vs the
    original paper's buggy semantics (leak only filtered when announced
    directly to a locking AS) — kept as an ablation."""

    ERRATUM = "erratum"
    ORIGINAL = "original"


@dataclass(frozen=True)
class LeakOutcome:
    """Result of one leak simulation."""

    origin: int
    leaker: int
    detoured: frozenset[int]
    total_ases: int

    @property
    def eligible(self) -> int:
        """ASes that could be detoured (everyone but origin and leaker)."""
        return max(self.total_ases - 2, 1)

    @property
    def fraction_detoured(self) -> float:
        return len(self.detoured) / self.eligible

    def fraction_users_detoured(self, users: Mapping[int, int]) -> float:
        """Fraction of users in detoured ASes (Fig. 9's weighting)."""
        total = sum(
            count
            for asn, count in users.items()
            if asn not in (self.origin, self.leaker)
        )
        if total == 0:
            return 0.0
        detoured_users = sum(users.get(asn, 0) for asn in self.detoured)
        return detoured_users / total


def _origin_seed(origin: int | Seed) -> Seed:
    if isinstance(origin, Seed):
        return origin
    return Seed(asn=origin, key="origin")


def simulate_leak(
    graph: ASGraph,
    origin: int | Seed,
    leaker: int | Seed,
    peer_locked: Collection[int] = frozenset(),
    mode: LeakMode = LeakMode.REANNOUNCE,
    semantics: PeerLockSemantics = PeerLockSemantics.ERRATUM,
    engine: Optional[str] = None,
) -> Optional[LeakOutcome]:
    """Simulate ``leaker`` leaking ``origin``'s prefix.

    ``origin`` may be a :class:`Seed` to carry an announcement restriction
    (the "announce to Tier-1, Tier-2, and providers" configuration).
    ``leaker`` may be the leak's seed, as
    :func:`~repro.bgpsim.policies.leak_seed` builds it: its
    ``initial_length`` then replaces the baseline propagation that reads
    the leaker's path length (only ``asn`` and ``initial_length`` are
    read).  :func:`simulate_leaks` hands over such seeds from one shared
    baseline.
    Returns ``None`` when the leaker holds no route to the origin under the
    given configuration (there is nothing to re-announce); a hijack-mode
    leaker never needs a route.  ``engine`` selects the propagation
    engine (see :func:`repro.bgpsim.engine.propagate`).
    """
    legit = _origin_seed(origin)
    asn = leaker.asn if isinstance(leaker, Seed) else leaker
    if asn == legit.asn or asn not in graph:
        raise ValueError(f"invalid leaker AS{asn}")

    peer_locked = frozenset(peer_locked) - {legit.asn, asn}

    if mode is LeakMode.SUBPREFIX:
        # a more-specific prefix wins everywhere it propagates; only the
        # filtering (peer locking) limits it, so the legitimate route is
        # irrelevant and the leak is simulated alone
        if semantics is PeerLockSemantics.ORIGINAL and peer_locked:
            export_to = frozenset(graph.neighbors(asn) - peer_locked)
            seed = Seed(asn=asn, key="leak", initial_length=0,
                        export_to=export_to)
            state = propagate(graph, seed, engine=engine)
        else:
            seed = Seed(asn=asn, key="leak", initial_length=0)
            state = propagate(
                graph, seed,
                peer_locked=peer_locked, locked_origin=legit.asn,
                engine=engine,
            )
        detoured = state.reachable_ases() - {legit.asn}
        return LeakOutcome(
            origin=legit.asn,
            leaker=asn,
            detoured=frozenset(detoured),
            total_ases=len(graph),
        )

    if isinstance(leaker, Seed):
        initial = leaker.initial_length
    elif mode is LeakMode.HIJACK:
        initial = 0
    else:
        baseline = propagate(graph, legit, peer_locked=peer_locked,
                             locked_origin=legit.asn, engine=engine)
        initial = baseline.path_length(asn)
        if initial is None:
            return None

    if semantics is PeerLockSemantics.ORIGINAL and peer_locked:
        # Original (pre-erratum) behaviour: the leak is only filtered on
        # direct announcement to a locking AS; emulate by removing locking
        # ASes from the leaker's export set and disabling path filtering.
        export_to = frozenset(graph.neighbors(asn) - peer_locked)
        leak = Seed(asn=asn, key="leak", initial_length=initial,
                    export_to=export_to)
        state = propagate(graph, (legit, leak), engine=engine)
    else:
        leak = Seed(asn=asn, key="leak", initial_length=initial)
        state = propagate(
            graph,
            (legit, leak),
            peer_locked=peer_locked,
            locked_origin=legit.asn,
            engine=engine,
        )

    # the array-backed states answer this without materializing routes
    detoured = state.ases_with_origin("leak") - state.seed_asns
    return LeakOutcome(
        origin=legit.asn,
        leaker=asn,
        detoured=detoured,
        total_ases=len(graph),
    )


def _reannounce_seeds(
    graph: ASGraph,
    legit: Seed,
    leakers: Sequence[int],
    peer_locked: frozenset[int],
    engine: Optional[str],
) -> list[int | Seed | None]:
    """Each leaker's re-announce leak seed, read off one shared baseline.

    The baseline is ``legit`` propagated under ``peer_locked`` minus the
    origin, the baseline :func:`simulate_leak` would propagate for every
    leaker outside the lock set.  Such a leaker becomes its leak seed, or
    ``None`` when it holds no route.  A leaker inside the lock set stays
    a plain ASN (its own baseline has it unlocked), and so does an
    invalid one, which :func:`simulate_leak` rejects.
    """
    baseline = propagate(graph, legit, peer_locked=peer_locked - {legit.asn},
                         locked_origin=legit.asn, engine=engine)
    items: list[int | Seed | None] = []
    for leaker in leakers:
        if leaker in peer_locked or leaker == legit.asn or leaker not in graph:
            items.append(leaker)
            continue
        length = baseline.path_length(leaker)
        items.append(
            None if length is None
            else leak_seed(graph, legit.asn, leaker, legit_path_length=length)
        )
    return items


def _leak_task(
    graph: ASGraph,
    leaker: int | Seed | None,
    origin: int | Seed = 0,
    peer_locked: Collection[int] = frozenset(),
    mode: LeakMode = LeakMode.REANNOUNCE,
    semantics: PeerLockSemantics = PeerLockSemantics.ERRATUM,
    engine: Optional[str] = None,
) -> Optional[LeakOutcome]:
    if leaker is None:
        return None
    return simulate_leak(
        graph, origin, leaker, peer_locked=peer_locked, mode=mode,
        semantics=semantics, engine=engine,
    )


def simulate_leaks(
    graph: ASGraph,
    origin: int | Seed,
    leakers: Sequence[int],
    peer_locked: Collection[int] = frozenset(),
    mode: LeakMode = LeakMode.REANNOUNCE,
    semantics: PeerLockSemantics = PeerLockSemantics.ERRATUM,
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> list[Optional[LeakOutcome]]:
    """:func:`simulate_leak` for every leaker, optionally across processes.

    Returns one entry per leaker, in order (``None`` where the leaker holds
    no route).  The fixed arguments ship to each worker once; with
    ``workers=None`` the simulations run serially in-process, producing the
    same list.

    Re-announce leaks share one baseline: the origin is propagated once
    here, and each leaker receives its re-announce length as a leak seed,
    so it costs one two-seed propagation.  Only the seeds ship to the
    workers, never the baseline.  A leaker inside the lock set runs the
    whole of :func:`simulate_leak`; hijack and subprefix leaks need no
    baseline.
    """
    legit = _origin_seed(origin)
    peer_locked = frozenset(peer_locked)
    items: Sequence[int | Seed | None] = leakers
    if mode is LeakMode.REANNOUNCE:
        items = _reannounce_seeds(graph, legit, leakers, peer_locked, engine)
    return list(
        graph_map(
            graph,
            _leak_task,
            items,
            workers=workers,
            origin=legit,
            peer_locked=peer_locked,
            mode=mode,
            semantics=semantics,
            engine=engine,
        )
    )


def _pair_leak_task(
    graph: ASGraph,
    pair: tuple[int, int | Seed | None],
    mode: LeakMode = LeakMode.REANNOUNCE,
    engine: Optional[str] = None,
) -> Optional[LeakOutcome]:
    origin, leaker = pair
    if leaker is None:
        return None
    return simulate_leak(graph, origin, leaker, mode=mode, engine=engine)


#: The five announcement/locking configurations plotted in Figs. 7-9.
LEAK_CONFIGURATIONS = (
    "announce_all",
    "announce_all_t1_lock",
    "announce_all_t1t2_lock",
    "announce_all_global_lock",
    "announce_hierarchy_only",
)


def configuration_seed_and_locks(
    graph: ASGraph,
    origin: int,
    tiers: TierAssignment,
    configuration: str,
) -> tuple[Seed, frozenset[int]]:
    """Map a Fig. 7/8 configuration name to (origin seed, peer-lock set)."""
    if configuration == "announce_all":
        return Seed(asn=origin, key="origin"), frozenset()
    if configuration == "announce_all_t1_lock":
        return Seed(asn=origin, key="origin"), peer_lock_set(
            graph, origin, tiers, "tier1"
        )
    if configuration == "announce_all_t1t2_lock":
        return Seed(asn=origin, key="origin"), peer_lock_set(
            graph, origin, tiers, "tier1+tier2"
        )
    if configuration == "announce_all_global_lock":
        return Seed(asn=origin, key="origin"), peer_lock_set(
            graph, origin, tiers, "all"
        )
    if configuration == "announce_hierarchy_only":
        return hierarchy_only_seed(graph, origin, tiers), frozenset()
    raise ValueError(f"unknown leak configuration: {configuration!r}")


def resilience_curve(
    graph: ASGraph,
    origin: int,
    tiers: TierAssignment,
    configuration: str,
    leakers: Sequence[int],
    mode: LeakMode = LeakMode.REANNOUNCE,
    semantics: PeerLockSemantics = PeerLockSemantics.ERRATUM,
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> list[float]:
    """Detoured-AS fractions over ``leakers`` for one configuration.

    Leakers with no route to the origin under the configuration are skipped
    (they cannot re-announce anything).  Each call is one
    :func:`simulate_leaks` sweep, so the configuration's ``(seed, locks)``
    baseline is propagated once.
    """
    seed, locks = configuration_seed_and_locks(graph, origin, tiers, configuration)
    outcomes = simulate_leaks(
        graph,
        seed,
        [leaker for leaker in leakers if leaker != origin],
        peer_locked=locks,
        mode=mode,
        semantics=semantics,
        workers=workers,
        engine=engine,
    )
    return sorted(
        outcome.fraction_detoured
        for outcome in outcomes
        if outcome is not None
    )


def average_resilience_curve(
    graph: ASGraph,
    rng: random.Random,
    origins: int = 50,
    leakers_per_origin: int = 50,
    mode: LeakMode = LeakMode.REANNOUNCE,
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> list[float]:
    """The paper's *average resilience* baseline: random legitimate origins
    against random misconfigured ASes, announce-to-all, no locking.

    The (origin, leaker) pairs are drawn up front — in exactly the order the
    historical serial loop drew them, so the RNG stream is unchanged — and
    then simulated, optionally in parallel.  Re-announce leaks propagate
    each distinct origin's baseline once and keep only its leakers'
    re-announce lengths, so one baseline is alive at a time and each pair
    costs one two-seed propagation.
    """
    nodes = sorted(graph.nodes())
    pairs: list[tuple[int, int]] = []
    for _ in range(origins):
        origin = rng.choice(nodes)
        for _ in range(leakers_per_origin):
            leaker = rng.choice(nodes)
            if leaker != origin:
                pairs.append((origin, leaker))
    items: list[tuple[int, int | Seed | None]] = list(pairs)
    if mode is LeakMode.REANNOUNCE:
        by_origin: dict[int, list[int]] = {}
        for origin, leaker in pairs:
            by_origin.setdefault(origin, []).append(leaker)
        seeds: dict[tuple[int, int], int | Seed | None] = {}
        for origin, leakers in by_origin.items():
            found = _reannounce_seeds(
                graph, _origin_seed(origin), leakers, frozenset(), engine
            )
            seeds.update(zip(((origin, leaker) for leaker in leakers), found))
        items = [(origin, seeds[origin, leaker]) for origin, leaker in pairs]
    outcomes = graph_map(
        graph, _pair_leak_task, items, workers=workers, mode=mode,
        engine=engine,
    )
    return sorted(
        outcome.fraction_detoured
        for outcome in outcomes
        if outcome is not None
    )


def lock_coverage_sweep(
    graph: ASGraph,
    origin: int,
    leakers: Sequence[int],
    coverages: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    rng: Optional[random.Random] = None,
    mode: LeakMode = LeakMode.REANNOUNCE,
    engine: Optional[str] = None,
    workers: int | str | None = None,
) -> dict[float, float]:
    """Mean detoured fraction vs. peer-lock deployment coverage.

    An ablation beyond the paper's three fixed deployment scenarios: for
    each coverage level, a random ``coverage`` fraction of the origin's
    neighbors deploys peer locking (biggest neighbors first would be the
    T1/T2 scenarios; random deployment is the pessimistic counterpart),
    and the same leakers are replayed.  Each coverage level is one
    :func:`simulate_leaks` sweep (one baseline per lock set), so the
    ``workers`` and ``engine`` knobs apply.
    """
    rng = rng or random.Random(0)
    neighbors = sorted(graph.neighbors(origin))
    eligible = [leaker for leaker in leakers if leaker != origin]
    results: dict[float, float] = {}
    for coverage in coverages:
        count = round(coverage * len(neighbors))
        locked = frozenset(rng.sample(neighbors, k=count)) if count else frozenset()
        outcomes = simulate_leaks(
            graph, origin, eligible, peer_locked=locked, mode=mode,
            workers=workers, engine=engine,
        )
        fractions = [
            outcome.fraction_detoured
            for outcome in outcomes
            if outcome is not None
        ]
        results[coverage] = (
            sum(fractions) / len(fractions) if fractions else 0.0
        )
    return results


def cdf_points(fractions: Sequence[float]) -> list[tuple[float, float]]:
    """(x, F(x)) pairs for plotting a CDF of detoured fractions."""
    ordered = sorted(fractions)
    n = len(ordered)
    return [(x, (i + 1) / n) for i, x in enumerate(ordered)]


def fraction_at_most(fractions: Sequence[float], threshold: float) -> float:
    """Share of simulations with detoured fraction <= threshold."""
    if not fractions:
        return 0.0
    return sum(1 for x in fractions if x <= threshold) / len(fractions)
