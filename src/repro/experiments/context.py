"""Shared experiment context: from raw scenario to the paper's analysis
graph.

Every experiment in the paper runs on the *augmented* AS-level topology:
the BGP-derived (CAIDA) view plus the cloud neighbors inferred from the
traceroute campaign (§4.1).  ``build_context`` performs that full pipeline
— generate the synthetic Internet, run the campaign, infer neighbors with
the final methodology, augment the public graph — and caches the result
per (profile, seed) so benchmarks can share it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..netgen import InternetScenario, build_scenario, profile
from ..neighbors import (
    FINAL_STAGE,
    NeighborInference,
    infer_all_clouds,
    validate_all,
)
from ..neighbors.validation import ValidationReport
from ..topology import ASGraph, AugmentationReport, augment_with_neighbors
from ..traceroute import TraceTable, TracerouteCampaign

#: Profile used when none is requested (override with REPRO_PROFILE).
DEFAULT_PROFILE = "small"


@dataclass
class ExperimentContext:
    """Everything downstream experiments need."""

    scenario: InternetScenario
    traceroutes: dict[int, TraceTable] = field(default_factory=dict)
    inferred: dict[int, NeighborInference] = field(default_factory=dict)
    augmented_graph: ASGraph = field(default_factory=ASGraph)
    augmentation: AugmentationReport = field(default_factory=AugmentationReport)

    @property
    def graph(self) -> ASGraph:
        """The analysis graph (public view + inferred cloud neighbors)."""
        return self.augmented_graph

    @property
    def tiers(self):
        return self.scenario.tiers

    @property
    def clouds(self) -> dict[str, int]:
        return self.scenario.clouds

    def validation_reports(self) -> dict[int, ValidationReport]:
        return validate_all(
            {c: inf.neighbors for c, inf in self.inferred.items()},
            {
                c: self.scenario.true_cloud_neighbors(c)
                for c in self.inferred
            },
        )

    def label(self, asn: int) -> str:
        return self.scenario.name_of(asn)


def build_context(
    profile_name: str = DEFAULT_PROFILE,
    seed: int | None = None,
    measure: bool = True,
) -> ExperimentContext:
    """Run the full §4 pipeline for one scenario profile.

    With ``measure=False`` the context's analysis graph is the ground-truth
    topology (useful for isolating measurement error in ablations).
    """
    config = profile(profile_name) if seed is None else profile(profile_name, seed=seed)
    scenario = build_scenario(config)
    context = ExperimentContext(scenario=scenario)
    if not measure:
        context.augmented_graph = scenario.graph.copy()
        return context
    campaign = TracerouteCampaign(scenario, seed=config.seed + 2)
    context.traceroutes = campaign.run_all()
    context.inferred = infer_all_clouds(
        scenario, context.traceroutes, FINAL_STAGE
    )
    context.augmented_graph = scenario.public_graph.copy()
    context.augmentation = augment_with_neighbors(
        context.augmented_graph,
        {c: inf.neighbors for c, inf in context.inferred.items()},
    )
    return context


_CACHE: dict[tuple[str, int | None, bool], ExperimentContext] = {}


def cached_context(
    profile_name: str | None = None,
    seed: int | None = None,
    measure: bool = True,
) -> ExperimentContext:
    """Memoized :func:`build_context` (shared across benchmarks)."""
    if profile_name is None:
        profile_name = os.environ.get("REPRO_PROFILE", DEFAULT_PROFILE)
    key = (profile_name, seed, measure)
    if key not in _CACHE:
        _CACHE[key] = build_context(profile_name, seed=seed, measure=measure)
    return _CACHE[key]
