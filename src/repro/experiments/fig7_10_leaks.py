"""Experiments E6-E8 — Figs. 7-10: route-leak resilience.

* Figs. 7/8: per-cloud (and Facebook) CDFs of the detoured-AS fraction
  under five announcement/peer-locking configurations plus the random
  *average resilience* baseline.
* Fig. 9: the same for Google, weighted by user population.
* Fig. 10: Google's announce-to-all resilience, 2015 vs 2020 topologies.

Paper shape (per the erratum): peer locking at Tier-1+Tier-2 neighbors
caps even the worst leaks near ~20% of ASes; global locking is near
immunity; announcing only to the hierarchy is *worse* than the average
random origin, because it forfeits the clouds' peering footprints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..bgpsim.cache import RoutingStateCache
from ..core.leaks import (
    LEAK_CONFIGURATIONS,
    average_resilience_curve,
    configuration_seed_and_locks,
    simulate_leaks,
)
from .context import ExperimentContext
from .report import cdf_summary, format_table


@dataclass
class LeakCurves:
    """All configuration curves for one origin network."""

    name: str
    asn: int
    curves: dict[str, list[float]] = field(default_factory=dict)
    users_curves: dict[str, list[float]] = field(default_factory=dict)

    def mean(self, configuration: str) -> float:
        curve = self.curves.get(configuration, [])
        return sum(curve) / len(curve) if curve else 0.0


@dataclass
class LeakResult:
    origins: list[LeakCurves]
    average_resilience: list[float]

    @property
    def average_mean(self) -> float:
        if not self.average_resilience:
            return 0.0
        return sum(self.average_resilience) / len(self.average_resilience)

    def render(self) -> str:
        rows = []
        for origin in self.origins:
            for configuration in LEAK_CONFIGURATIONS:
                if configuration in origin.curves:
                    rows.append(
                        (
                            origin.name,
                            configuration,
                            cdf_summary(origin.curves[configuration]),
                        )
                    )
        rows.append(("(random origin)", "average", cdf_summary(self.average_resilience)))
        return format_table(
            ("origin", "configuration", "detoured ASes"),
            rows,
            title="Figs. 7/8 — route-leak resilience",
        )


def leak_curves_for_origin(
    ctx: ExperimentContext,
    name: str,
    asn: int,
    leakers: list[int],
    configurations: tuple[str, ...] = LEAK_CONFIGURATIONS,
    with_users: bool = False,
    workers: int | str | None = None,
    engine: Optional[str] = None,
    cache: Optional[RoutingStateCache] = None,
) -> LeakCurves:
    graph, tiers = ctx.graph, ctx.tiers
    result = LeakCurves(name=name, asn=asn)
    for configuration in configurations:
        seed, locks = configuration_seed_and_locks(graph, asn, tiers, configuration)
        outcomes = simulate_leaks(
            graph,
            seed,
            [leaker for leaker in leakers if leaker != asn],
            peer_locked=locks,
            workers=workers,
            engine=engine,
            cache=cache,
        )
        fractions: list[float] = []
        user_fractions: list[float] = []
        for outcome in outcomes:
            if outcome is None:
                continue
            fractions.append(outcome.fraction_detoured)
            if with_users:
                user_fractions.append(
                    outcome.fraction_users_detoured(ctx.scenario.users)
                )
        result.curves[configuration] = sorted(fractions)
        if with_users:
            result.users_curves[configuration] = sorted(user_fractions)
    return result


def sample_leakers(ctx: ExperimentContext, n: int, seed: int = 11) -> list[int]:
    rng = random.Random(seed)
    nodes = sorted(ctx.graph.nodes())
    return rng.sample(nodes, k=min(n, len(nodes)))


def run(
    ctx: ExperimentContext,
    leaks_per_config: int = 120,
    baseline_origins: int = 15,
    baseline_leakers: int = 15,
    include_facebook: bool = True,
    workers: int | str | None = None,
    engine: Optional[str] = None,
    stream: bool | str | None = None,
) -> LeakResult:
    """Figs. 7 and 8 for every cloud (and Facebook).

    Under the compiled engine every ``(origin, configuration)`` group
    computes its baseline once through a shared
    :class:`~repro.bgpsim.cache.RoutingStateCache`.
    """
    leakers = sample_leakers(ctx, leaks_per_config)
    origins = list(ctx.clouds.items())
    if include_facebook and ctx.scenario.facebook_asn is not None:
        origins.append(("Facebook", ctx.scenario.facebook_asn))
    cache = RoutingStateCache(ctx.graph, engine=engine)
    curves = [
        leak_curves_for_origin(
            ctx, name, asn, leakers, workers=workers, engine=engine,
            cache=cache,
        )
        for name, asn in origins
    ]
    baseline = average_resilience_curve(
        ctx.graph,
        random.Random(23),
        origins=baseline_origins,
        leakers_per_origin=baseline_leakers,
        workers=workers,
        engine=engine,
        cache=cache,
        stream=stream,
    )
    return LeakResult(origins=curves, average_resilience=baseline)


def run_fig9(
    ctx: ExperimentContext,
    leaks_per_config: int = 120,
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> LeakCurves:
    """Fig. 9: Google's curves weighted by detoured users."""
    leakers = sample_leakers(ctx, leaks_per_config, seed=13)
    return leak_curves_for_origin(
        ctx, "Google", ctx.clouds["Google"], leakers, with_users=True,
        workers=workers, engine=engine,
    )


@dataclass
class Fig10Result:
    curve_2015: list[float]
    curve_2020: list[float]

    def render(self) -> str:
        return format_table(
            ("topology", "detoured ASes"),
            [
                ("2015", cdf_summary(self.curve_2015)),
                ("2020", cdf_summary(self.curve_2020)),
            ],
            title="Fig. 10 — Google announce-to-all resilience over time",
        )


def run_fig10(
    ctx_2020: ExperimentContext,
    ctx_2015: ExperimentContext,
    leaks_per_config: int = 120,
    workers: int | str | None = None,
    engine: Optional[str] = None,
) -> Fig10Result:
    curves = {}
    for key, ctx in (("2015", ctx_2015), ("2020", ctx_2020)):
        leakers = sample_leakers(ctx, leaks_per_config, seed=29)
        origin = ctx.clouds["Google"]
        result = leak_curves_for_origin(
            ctx, "Google", origin, leakers, configurations=("announce_all",),
            workers=workers, engine=engine,
        )
        curves[key] = result.curves["announce_all"]
    return Fig10Result(curve_2015=curves["2015"], curve_2020=curves["2020"])
