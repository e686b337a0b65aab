"""Extension experiment — influence metrics side by side.

Not a paper artifact: the paper's §6.6/§10 argue that customer cone,
degree-based metrics, and inbetweenness scores (AS hegemony) capture
different notions of importance than hierarchy-free reachability.  This
experiment computes all five metrics for the clouds and the transit
hierarchy on one topology so the decorrelation claims can be inspected
directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.cones import customer_cone_size, node_degree, transit_degree
from ..core.hegemony import global_hegemony
from ..core.metrics import hierarchy_free_reachability
from .context import ExperimentContext
from .report import format_table


@dataclass(frozen=True)
class MetricsRow:
    name: str
    asn: int
    cohort: str
    hierarchy_free: int
    customer_cone: int
    transit_degree: int
    node_degree: int
    hegemony: float


@dataclass
class MetricsComparisonResult:
    rows: list[MetricsRow]

    def row(self, name: str) -> MetricsRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def rank_of(self, name: str, metric: str) -> int:
        ordered = sorted(
            self.rows, key=lambda r: (-getattr(r, metric), r.asn)
        )
        for rank, row in enumerate(ordered, 1):
            if row.name == name:
                return rank
        raise KeyError(name)

    def render(self) -> str:
        ordered = sorted(self.rows, key=lambda r: -r.hierarchy_free)
        return format_table(
            ("network", "cohort", "HFR", "cone", "transit°", "degree",
             "hegemony"),
            [
                (
                    r.name, r.cohort, r.hierarchy_free, r.customer_cone,
                    r.transit_degree, r.node_degree, f"{r.hegemony:.4f}",
                )
                for r in ordered
            ],
            title="Influence metrics compared (extension)",
        )


def run(
    ctx: ExperimentContext,
    hegemony_sample: int = 40,
    seed: int = 41,
    engine: str | None = None,
) -> MetricsComparisonResult:
    graph, tiers = ctx.graph, ctx.tiers
    targets: list[tuple[str, int, str]] = [
        (name, asn, "cloud") for name, asn in ctx.clouds.items()
    ]
    targets += [
        (ctx.label(asn), asn, "tier1") for asn in sorted(tiers.tier1)
    ]
    targets += [
        (ctx.label(asn), asn, "tier2") for asn in sorted(tiers.tier2)
    ]
    hegemony = global_hegemony(
        graph,
        targets=[asn for _, asn, _ in targets],
        sample=hegemony_sample,
        rng=random.Random(seed),
        engine=engine,
    )
    rows = [
        MetricsRow(
            name=name,
            asn=asn,
            cohort=cohort,
            hierarchy_free=hierarchy_free_reachability(graph, asn, tiers),
            customer_cone=customer_cone_size(graph, asn),
            transit_degree=transit_degree(graph, asn),
            node_degree=node_degree(graph, asn),
            hegemony=hegemony[asn],
        )
        for name, asn, cohort in targets
    ]
    return MetricsComparisonResult(rows=rows)
