"""Experiment E5 — Fig. 6 and Table 2: the clouds' reliance on other
networks under hierarchy-free constraints.

Paper shape: the overwhelming majority of networks have reliance 1 (the
flat-mesh ideal); each cloud relies heavily on only a handful of networks;
the least-peered cloud (Amazon) shows the single largest reliance value.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.reliance import RelianceSummary, hierarchy_free_reliance_summaries
from .context import ExperimentContext
from .report import format_table


@dataclass
class CloudReliance:
    """One cloud's aggregated reliance record (a named summary).

    The sweep keeps the compact :class:`RelianceSummary`: the figure and
    table only aggregate the per-AS reliance dict, so it is never built.
    """

    name: str
    asn: int
    summary: RelianceSummary

    @property
    def networks_relied_on(self) -> int:
        return self.summary.networks

    @property
    def histogram(self) -> dict[int, int]:
        return self.summary.histogram

    @property
    def top3(self) -> list[tuple[int, float]]:
        return list(self.summary.top)

    @property
    def max_reliance(self) -> float:
        return self.summary.max_value

    def fraction_at_one(self) -> float:
        """Share of relied-on networks with reliance ~1 (flat ideal)."""
        return self.summary.fraction_at_one()


@dataclass
class Fig6Table2Result:
    clouds: list[CloudReliance]

    def render(self) -> str:
        hist_rows = []
        for cloud in self.clouds:
            hist_rows.append(
                (
                    cloud.name,
                    cloud.networks_relied_on,
                    f"{cloud.fraction_at_one():.0%}",
                    f"{cloud.max_reliance:.1f}",
                )
            )
        hist = format_table(
            ("cloud", "networks relied on", "rely<=1", "max rely"),
            hist_rows,
            title="Fig. 6 — reliance distribution per cloud (hierarchy-free)",
        )
        top_rows = []
        for cloud in self.clouds:
            cells = [cloud.name]
            for asn, value in cloud.top3:
                cells.append(f"AS{asn} ({value:.1f})")
            while len(cells) < 4:
                cells.append("-")
            top_rows.append(tuple(cells))
        top = format_table(
            ("cloud", "#1", "#2", "#3"),
            top_rows,
            title="Table 2 — top-3 reliance per cloud",
        )
        return hist + "\n\n" + top


def run(
    ctx: ExperimentContext,
    bin_width: int = 25,
    engine: str | None = None,
) -> Fig6Table2Result:
    graph, tiers = ctx.graph, ctx.tiers
    names = list(ctx.clouds.items())
    summaries = hierarchy_free_reliance_summaries(
        graph,
        [asn for _, asn in names],
        tiers,
        bin_width=bin_width,
        engine=engine,
    )
    clouds = [
        CloudReliance(name=name, asn=asn, summary=summary)
        for (name, asn), summary in zip(names, summaries)
    ]
    return Fig6Table2Result(clouds=clouds)
