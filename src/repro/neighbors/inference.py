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

from dataclasses import dataclass
from typing import Optional

from ..mapping.resolver import IterativeResolver
from .. import mapping
from ..traceroute.model import NO_REPLY, TraceTable


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


def infer_from_traceroutes(
    cloud_asn: int,
    traceroutes: TraceTable,
    resolver: IterativeResolver,
    stage: InferenceStage = FINAL_STAGE,
) -> NeighborInference:
    """Apply one methodology stage to a cloud's traceroutes.

    Reads the table's columns: a trace's hops resolve only up to the
    first one past the leading cloud segment (plus the one a skip rule
    may step over), each distinct address through ``resolver`` once.
    """
    if tuple(resolver.order) != stage.resolution_order:
        raise ValueError(
            f"resolver order {resolver.order} does not match stage "
            f"{stage.name} ({stage.resolution_order})"
        )
    result = NeighborInference(cloud_asn=cloud_asn, neighbors=set(), evidence={})
    if traceroutes.cloud_asn != cloud_asn:
        return result
    evidence = result.evidence
    asn_of: dict[int, Optional[int]] = {NO_REPLY: None}

    def resolve(ip: int) -> Optional[int]:
        answer = resolver.resolve(ip)
        asn = asn_of[ip] = answer.asn if answer else None
        return asn

    hop_ip, hop_off = traceroutes.hop_ip, traceroutes.hop_off
    vm_limit = stage.vm_limit
    skip = stage.skip_one_unknown
    for t, vm in enumerate(traceroutes.vm):
        if not traceroutes.reached[t]:
            continue
        if vm_limit is not None and vm >= vm_limit:
            continue
        # the hop after the leading cloud segment must resolve to the
        # neighbor (or, under the skip rule, the one after it)
        lo, hi = hop_off[t], hop_off[t + 1]
        k = lo
        candidate = None
        while k < hi:
            ip = hop_ip[k]
            candidate = asn_of[ip] if ip in asn_of else resolve(ip)
            if candidate != cloud_asn:
                break
            k += 1
        if k == lo or k == hi:
            # tunneled away (no cloud hop adjacent to the border), or
            # nothing after the cloud
            candidate = None
        elif candidate is None and skip and k + 1 < hi:
            ip = hop_ip[k + 1]
            candidate = asn_of[ip] if ip in asn_of else resolve(ip)
        if candidate is None or candidate == cloud_asn:
            result.discarded += 1
            continue
        result.used += 1
        result.neighbors.add(candidate)
        evidence[candidate] = evidence.get(candidate, 0) + 1
    return result


def build_resolver(scenario, stage: InferenceStage) -> IterativeResolver:
    """The resolution cascade matching a stage's service order."""
    return mapping.resolver_from_scenario(
        scenario, order=stage.resolution_order
    )


def infer_all_clouds(
    scenario,
    traceroutes_by_cloud: dict[int, TraceTable],
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
