"""Neighbor inference from cloud traceroutes (§4.1), including the §5
methodology iterations.

The final rule: keep only traceroutes with a cloud hop immediately adjacent
to a hop that resolves to a different AS — no intervening unresponsive or
unmapped hops — and take that adjacent AS as a neighbor.  The paper reached
this rule through several iterations, which are preserved as stages so the
accuracy trajectory (FDR 50% → 11%, FNR 50% → 21% for Microsoft) can be
reproduced and benchmarked:

* **V0** — BGP-only resolution; one unknown/unresponsive hop after the
  cloud may be skipped (assumed not to be an intermediate AS);
* **V1** — discard traceroutes with an unresponsive border hop instead of
  skipping (the skipping rule was the leading cause of false positives);
* **V2** — resolve unmapped addresses through PeeringDB and whois (IXP
  LANs absent from BGP);
* **V3** — add the remaining VM locations (more peers, slightly more
  noise);
* **V4** — prefer PeeringDB over Team Cymru for peering-LAN addresses
  (globally-announced IXP prefixes otherwise resolve to the IXP's ASN).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from ..mapping.resolver import IterativeResolver
from .. import mapping
from ..traceroute.model import Traceroute


@dataclass(frozen=True)
class InferenceStage:
    """One methodology iteration."""

    name: str
    description: str
    resolution_order: tuple[str, ...]
    skip_one_unknown: bool
    vm_limit: Optional[int]  # None = use every VM


STAGES: tuple[InferenceStage, ...] = (
    InferenceStage(
        name="V0",
        description="initial: BGP-only mapping, skip one unknown hop",
        resolution_order=("cymru",),
        skip_one_unknown=True,
        vm_limit=6,
    ),
    InferenceStage(
        name="V1",
        description="discard traceroutes with unresponsive border hops",
        resolution_order=("cymru",),
        skip_one_unknown=False,
        vm_limit=6,
    ),
    InferenceStage(
        name="V2",
        description="resolve unmapped addresses via PeeringDB and whois",
        resolution_order=("cymru", "peeringdb", "whois"),
        skip_one_unknown=False,
        vm_limit=6,
    ),
    InferenceStage(
        name="V3",
        description="add VMs in the remaining locations",
        resolution_order=("cymru", "peeringdb", "whois"),
        skip_one_unknown=False,
        vm_limit=None,
    ),
    InferenceStage(
        name="V4",
        description="final: prefer PeeringDB over Cymru for IXP addresses",
        resolution_order=("peeringdb", "cymru", "whois"),
        skip_one_unknown=False,
        vm_limit=None,
    ),
)

FINAL_STAGE = STAGES[-1]


def stage_by_name(name: str) -> InferenceStage:
    for stage in STAGES:
        if stage.name == name:
            return stage
    raise KeyError(f"unknown inference stage: {name!r}")


@dataclass
class NeighborInference:
    """Inferred neighbor set for one cloud, with per-neighbor evidence."""

    cloud_asn: int
    neighbors: set[int]
    evidence: dict[int, int]  # neighbor → number of supporting traceroutes
    used: int = 0
    discarded: int = 0


def _resolve_hops(
    trace: Traceroute, resolver: IterativeResolver
) -> list[Optional[int]]:
    resolved: list[Optional[int]] = []
    for hop in trace.hops:
        if hop.ip is None:
            resolved.append(None)
        else:
            answer = resolver.resolve(hop.ip)
            resolved.append(answer.asn if answer else None)
    return resolved


def infer_from_traceroutes(
    cloud_asn: int,
    traceroutes: Iterable[Traceroute],
    resolver: IterativeResolver,
    stage: InferenceStage = FINAL_STAGE,
) -> NeighborInference:
    """Apply one methodology stage to a cloud's traceroutes."""
    if tuple(resolver.order) != stage.resolution_order:
        raise ValueError(
            f"resolver order {resolver.order} does not match stage "
            f"{stage.name} ({stage.resolution_order})"
        )
    result = NeighborInference(
        cloud_asn=cloud_asn, neighbors=set(), evidence=defaultdict(int)
    )
    for trace in traceroutes:
        if trace.cloud_asn != cloud_asn or not trace.reached:
            continue
        if stage.vm_limit is not None and trace.vantage.index >= stage.vm_limit:
            continue
        neighbor = _neighbor_from_trace(trace, resolver, stage)
        if neighbor is None:
            result.discarded += 1
            continue
        result.used += 1
        result.neighbors.add(neighbor)
        result.evidence[neighbor] += 1
    result.evidence = dict(result.evidence)
    return result


def _neighbor_from_trace(
    trace: Traceroute,
    resolver: IterativeResolver,
    stage: InferenceStage,
) -> Optional[int]:
    resolved = _resolve_hops(trace, resolver)
    # locate the last hop of the leading cloud segment
    last_cloud = -1
    for index, asn in enumerate(resolved):
        if asn == trace.cloud_asn:
            last_cloud = index
        else:
            break
    if last_cloud < 0:
        return None  # tunneled away: no cloud hop adjacent to the border
    index = last_cloud + 1
    if index >= len(resolved):
        return None
    candidate = resolved[index]
    if candidate is None and stage.skip_one_unknown:
        index += 1
        candidate = resolved[index] if index < len(resolved) else None
    if candidate is None or candidate == trace.cloud_asn:
        return None
    return candidate


def build_resolver(scenario, stage: InferenceStage) -> IterativeResolver:
    """The resolution cascade matching a stage's service order."""
    return mapping.resolver_from_scenario(
        scenario, order=stage.resolution_order
    )


def infer_all_clouds(
    scenario,
    traceroutes_by_cloud: dict[int, list[Traceroute]],
    stage: InferenceStage = FINAL_STAGE,
) -> dict[int, NeighborInference]:
    """Run one stage for every cloud.

    The clouds share one memoized resolver, so each distinct hop address
    goes through the stage's cascade once.
    """
    resolver = build_resolver(scenario, stage)
    return {
        cloud: infer_from_traceroutes(cloud, traces, resolver, stage)
        for cloud, traces in traceroutes_by_cloud.items()
    }
