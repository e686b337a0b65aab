"""Experiment E15 — Fig. 13 (Appendix E): path-length mix over time.

Paper shape: each cloud's 1-hop (direct) share is roughly stable between
2015 and 2020 despite growing peer counts — the Internet grew faster than
the clouds added peers — and Google reaches by far the largest share of
the user population at one hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pathlen import PathLengthMix, fig13_bars_sweep
from .context import ExperimentContext
from .report import format_table, percent


@dataclass
class Fig13Result:
    #: {year: {cloud: {weighting: mix}}}
    bars: dict[int, dict[str, dict[str, PathLengthMix]]]

    def mix(self, year: int, cloud: str, weighting: str) -> PathLengthMix:
        return self.bars[year][cloud][weighting]

    def render(self) -> str:
        rows = []
        for year in sorted(self.bars):
            for cloud in sorted(self.bars[year]):
                for weighting, mix in self.bars[year][cloud].items():
                    rows.append(
                        (
                            year,
                            cloud,
                            weighting,
                            percent(mix.one_hop),
                            percent(mix.two_hop),
                            percent(mix.three_plus),
                        )
                    )
        return format_table(
            ("year", "cloud", "weighting", "1 hop", "2 hops", "3+ hops"),
            rows,
            title="Fig. 13 — path length mix (direct connectivity)",
        )


def run(
    ctx_2020: ExperimentContext,
    ctx_2015: ExperimentContext,
    engine: str | None = None,
) -> Fig13Result:
    bars: dict[int, dict[str, dict[str, PathLengthMix]]] = {}
    for year, ctx in ((2015, ctx_2015), (2020, ctx_2020)):
        clouds = [
            (name, asn)
            for name, asn in ctx.clouds.items()
            # no 2015 Microsoft traceroute data
            if year != 2015 or ctx.scenario.vm_cities.get(asn)
        ]
        groups = fig13_bars_sweep(
            ctx.graph,
            [asn for _, asn in clouds],
            ctx.scenario.users,
            engine=engine,
        )
        bars[year] = {
            name: group for (name, _), group in zip(clouds, groups)
        }
    return Fig13Result(bars=bars)
