"""Scenario configuration profiles for the synthetic Internet generator.

The generator replaces the paper's external datasets (CAIDA relationship
snapshots, cloud VM traceroutes, PeeringDB, APNIC populations) with
synthetic equivalents.  Profiles encode the qualitative facts the paper
reports so the reproduced experiments exhibit the same shapes:

* the four clouds differ in peering policy — Google open (7,757 neighbors
  in 2020), Microsoft selective (3,580), IBM selective (3,702), Amazon
  restrictive-ish (1,389) — and in transit arrangements (Google had 3
  providers incl. two Tier-1s, Microsoft 7 Tier-1 providers, Amazon ~20);
* 2015's Internet was ~74% of 2020's size (51,801 vs 69,999 ASes) and
  Amazon/Microsoft/IBM peered far less then, while Google was already open;
* BGP feeds see essentially all c2p links but miss most cloud edge
  peerings (90% for Google/Microsoft);
* clouds concentrate PoPs near large metros in NA/EU/Asia; transit
  providers cover more unique locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CloudProfile:
    """Generation knobs for one cloud provider AS."""

    name: str
    asn: int
    #: probability of peering with an eligible edge AS co-located with a PoP
    edge_peer_fraction: float
    #: Tier-1s the cloud peers with (settlement-free)
    tier1_peers: int
    #: Tier-1s the cloud buys transit from
    tier1_providers: int
    #: Tier-2s the cloud buys transit from
    tier2_providers: int
    #: small/regional transit providers the cloud buys from
    other_providers: int
    #: number of PoP metros
    pop_count: int
    #: number of datacenter metros (VM locations are drawn from these)
    datacenter_count: int
    #: VMs used in the measurement campaign
    vm_locations: int
    #: False → tenant traffic exits near the VM (Amazon early exit)
    wan_egress: bool = True
    #: relative preference for peering with access networks (Fig. 4)
    access_bias: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.edge_peer_fraction <= 1.0:
            raise ValueError("edge_peer_fraction must be in [0, 1]")
        if self.vm_locations < 0:
            raise ValueError("vm_locations must be >= 0 (0 = no measurements)")


@dataclass(frozen=True)
class ArtifactRates:
    """Measurement-noise knobs for the traceroute simulator (§4.4, §5)."""

    #: probability that any given transit hop is unresponsive
    unresponsive_hop: float = 0.05
    #: probability a provider border hop is unresponsive (drives V0's FDR)
    unresponsive_border: float = 0.12
    #: fraction of IXP LANs absent from BGP (whois/PeeringDB only)
    ixp_unannounced: float = 0.5
    #: probability a border hop is misattributed to another IXP member
    #: (load balancing / off-path addresses; drives residual FDR)
    ixp_misattribution: float = 0.03
    #: probability an entire traceroute is dropped by rate limiting
    rate_limited: float = 0.02
    #: probability intra-cloud hops are hidden by tunneling
    tunnel_suppression: float = 0.3
    #: probability the cloud forwards via a non-best (traffic-engineered)
    #: route instead of a tied-best one — Appendix A's gap between
    #: simulated and observed paths
    policy_deviation: float = 0.05
    #: fraction of cloud-edge IXP peerings that are route-server sessions,
    #: usable only at the PoP where they live (drives the final FNR, §5)
    route_server_fraction: float = 0.45

    def __post_init__(self) -> None:
        for name in (
            "unresponsive_hop",
            "unresponsive_border",
            "ixp_unannounced",
            "ixp_misattribution",
            "rate_limited",
            "tunnel_suppression",
            "policy_deviation",
            "route_server_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one synthetic Internet."""

    name: str
    seed: int = 20200901
    year: int = 2020
    # AS population by class
    n_tier1: int = 14
    n_tier2: int = 18
    n_regional: int = 120
    n_access: int = 900
    n_content: int = 220
    n_enterprise: int = 700
    # wiring densities
    t2_mutual_peer_prob: float = 0.55
    t2_tier1_peer_prob: float = 0.4
    t2_provider_count: tuple[int, int] = (1, 3)
    regional_provider_count: tuple[int, int] = (1, 3)
    regional_peer_prob: float = 0.08
    edge_provider_count: tuple[int, int] = (1, 2)
    content_peer_prob: float = 0.06
    #: probability an edge AS is present at its home-city IXP
    ixp_presence: float = 0.55
    n_ixps: int = 40
    # measurement model
    n_bgp_monitors: int = 60
    artifacts: ArtifactRates = field(default_factory=ArtifactRates)
    clouds: tuple[CloudProfile, ...] = ()
    include_facebook: bool = True
    facebook_asn: int = 32934
    facebook_peer_fraction: float = 0.45

    @property
    def total_ases(self) -> int:
        # +1 for the Durand-like small transit the generator always adds
        # (Google's odd third provider in the Sep-2020 snapshot).
        extra = len(self.clouds) + (1 if self.include_facebook else 0) + 1
        return (
            self.n_tier1
            + self.n_tier2
            + self.n_regional
            + self.n_access
            + self.n_content
            + self.n_enterprise
            + extra
        )


def _clouds_2020() -> tuple[CloudProfile, ...]:
    return (
        CloudProfile(
            name="Google", asn=15169, edge_peer_fraction=0.82,
            tier1_peers=10, tier1_providers=2, tier2_providers=0,
            other_providers=1, pop_count=56, datacenter_count=12,
            vm_locations=12, access_bias=1.6,
        ),
        CloudProfile(
            name="Microsoft", asn=8075, edge_peer_fraction=0.62,
            tier1_peers=4, tier1_providers=7, tier2_providers=1,
            other_providers=0, pop_count=60, datacenter_count=11,
            vm_locations=11, access_bias=1.5,
        ),
        CloudProfile(
            name="IBM", asn=36351, edge_peer_fraction=0.55,
            tier1_peers=5, tier1_providers=3, tier2_providers=2,
            other_providers=1, pop_count=40, datacenter_count=6,
            vm_locations=6, access_bias=1.4,
        ),
        CloudProfile(
            name="Amazon", asn=16509, edge_peer_fraction=0.30,
            tier1_peers=5, tier1_providers=8, tier2_providers=6,
            other_providers=6, pop_count=48, datacenter_count=20,
            vm_locations=20, wan_egress=False, access_bias=0.9,
        ),
    )


def _clouds_2015() -> tuple[CloudProfile, ...]:
    # Google was already an open peer in 2015; the other three grew their
    # footprints dramatically between 2015 and 2020 (Table 1).
    google, microsoft, ibm, amazon = _clouds_2020()
    return (
        replace(google, edge_peer_fraction=0.75, pop_count=40,
                tier1_providers=3, other_providers=1),
        replace(microsoft, edge_peer_fraction=0.18, pop_count=30,
                vm_locations=0),  # no 2015 Microsoft traceroute data
        replace(ibm, edge_peer_fraction=0.38, pop_count=25),
        replace(amazon, edge_peer_fraction=0.08, pop_count=20),
    )


def tiny(seed: int = 7) -> ScenarioConfig:
    """~130 ASes; for unit tests."""
    return ScenarioConfig(
        name="tiny", seed=seed, n_tier1=4, n_tier2=5, n_regional=10,
        n_access=55, n_content=18, n_enterprise=35, n_ixps=8,
        n_bgp_monitors=10,
        clouds=tuple(
            replace(c, pop_count=10, datacenter_count=3,
                    vm_locations=min(3, c.vm_locations) or 3,
                    tier1_peers=min(2, c.tier1_peers),
                    tier1_providers=min(2, c.tier1_providers),
                    tier2_providers=min(1, c.tier2_providers),
                    other_providers=min(1, c.other_providers))
            for c in _clouds_2020()
        ),
    )


def small(seed: int = 20200901) -> ScenarioConfig:
    """~700 ASes; fast experiment smoke runs."""
    return ScenarioConfig(
        name="small", seed=seed, n_tier1=8, n_tier2=10, n_regional=40,
        n_access=340, n_content=90, n_enterprise=200, n_ixps=20,
        n_bgp_monitors=25, clouds=_clouds_2020(),
    )


def mid(seed: int = 20200901) -> ScenarioConfig:
    """~2k ASes; benchmark-scale scenario with a flatter edge mix than
    :func:`year2020` (more access networks, fewer transit tiers)."""
    return ScenarioConfig(
        name="mid", seed=seed, n_tier1=10, n_tier2=14, n_regional=80,
        n_access=1100, n_content=280, n_enterprise=500, n_ixps=30,
        n_bgp_monitors=40, clouds=_clouds_2020(),
    )


def large(seed: int = 20200901) -> ScenarioConfig:
    """~10k ASes; stress-scale scenario for the scaling benchmarks."""
    return ScenarioConfig(
        name="large", seed=seed, n_tier1=14, n_tier2=18, n_regional=300,
        n_access=5600, n_content=1100, n_enterprise=2950, n_ixps=80,
        n_bgp_monitors=100, clouds=_clouds_2020(),
    )


def full(seed: int = 20200901) -> ScenarioConfig:
    """~70k ASes — the paper's true September-2020 scale (69,999 ASes).

    Class counts follow the same edge-heavy mix as :func:`large` scaled
    ~7×: the access + enterprise edge dominates (as in the real
    AS-level topology), with the curated Tier-1/Tier-2 sets used in
    full.  Generating this profile takes about a minute; the
    all-origin sweeps hold one batch of routing state at a time, so
    they run at this size with no memory setting.
    """
    return ScenarioConfig(
        name="full", seed=seed, n_tier1=16, n_tier2=21, n_regional=1800,
        n_access=40600, n_content=7800, n_enterprise=19756, n_ixps=120,
        n_bgp_monitors=200, clouds=_clouds_2020(),
    )


def year2020(seed: int = 20200901) -> ScenarioConfig:
    """The default benchmark scenario (~2000 ASes), September-2020-like."""
    return ScenarioConfig(name="year2020", seed=seed, clouds=_clouds_2020())


def year2015(seed: int = 20150901) -> ScenarioConfig:
    """September-2015-like scenario: ~74% of 2020's size, thin cloud
    peering except Google."""
    cfg2020 = year2020()
    scale = 0.74
    return ScenarioConfig(
        name="year2015", seed=seed, year=2015,
        n_tier1=cfg2020.n_tier1,
        n_tier2=cfg2020.n_tier2 - 2,
        n_regional=int(cfg2020.n_regional * scale),
        n_access=int(cfg2020.n_access * scale),
        n_content=int(cfg2020.n_content * scale),
        n_enterprise=int(cfg2020.n_enterprise * scale),
        n_ixps=int(cfg2020.n_ixps * 0.7),
        n_bgp_monitors=int(cfg2020.n_bgp_monitors * 0.7),
        clouds=_clouds_2015(),
        facebook_peer_fraction=0.30,
    )


def _scale_to_2015(cfg: ScenarioConfig, name: str, seed: int) -> ScenarioConfig:
    scale = 0.74
    return ScenarioConfig(
        name=name, seed=seed, year=2015,
        n_tier1=cfg.n_tier1,
        n_tier2=max(cfg.n_tier2 - 2, 2),
        n_regional=max(int(cfg.n_regional * scale), 2),
        n_access=max(int(cfg.n_access * scale), 4),
        n_content=max(int(cfg.n_content * scale), 2),
        n_enterprise=max(int(cfg.n_enterprise * scale), 2),
        n_ixps=max(int(cfg.n_ixps * 0.7), 2),
        n_bgp_monitors=max(int(cfg.n_bgp_monitors * 0.7), 2),
        clouds=tuple(
            replace(
                c2015,
                pop_count=min(c2015.pop_count, ctiny.pop_count),
                datacenter_count=ctiny.datacenter_count,
                vm_locations=min(c2015.vm_locations, ctiny.vm_locations),
                tier1_peers=ctiny.tier1_peers,
                tier1_providers=ctiny.tier1_providers,
                tier2_providers=ctiny.tier2_providers,
                other_providers=ctiny.other_providers,
            )
            for c2015, ctiny in zip(_clouds_2015(), cfg.clouds)
        ),
        facebook_peer_fraction=0.30,
    )


def tiny2015(seed: int = 8) -> ScenarioConfig:
    """2015 companion of :func:`tiny` (for fast longitudinal tests)."""
    return _scale_to_2015(tiny(), "tiny2015", seed)


def small2015(seed: int = 20150901) -> ScenarioConfig:
    """2015 companion of :func:`small` (for benchmark longitudinal runs)."""
    return _scale_to_2015(small(), "small2015", seed)


def mid2015(seed: int = 20150901) -> ScenarioConfig:
    """2015 companion of :func:`mid`."""
    return _scale_to_2015(mid(), "mid2015", seed)


def large2015(seed: int = 20150901) -> ScenarioConfig:
    """2015 companion of :func:`large`."""
    return _scale_to_2015(large(), "large2015", seed)


def full2015(seed: int = 20150901) -> ScenarioConfig:
    """2015 companion of :func:`full` (~51.8k ASes vs the paper's
    51,801)."""
    return _scale_to_2015(full(), "full2015", seed)


PROFILES = {
    "tiny": tiny,
    "tiny2015": tiny2015,
    "small": small,
    "small2015": small2015,
    "mid": mid,
    "mid2015": mid2015,
    "large": large,
    "large2015": large2015,
    "full": full,
    "full2015": full2015,
    "year2020": year2020,
    "year2015": year2015,
}

#: 2020-profile → matching 2015-profile for longitudinal experiments.
COMPANION_2015 = {
    "tiny": "tiny2015",
    "small": "small2015",
    "mid": "mid2015",
    "large": "large2015",
    "full": "full2015",
    "year2020": "year2015",
}


def companion_2015(profile_name: str) -> str:
    """The 2015 companion of a 2020-like profile."""
    try:
        return COMPANION_2015[profile_name]
    except KeyError:
        raise KeyError(
            f"no 2015 companion for profile {profile_name!r}"
        ) from None


def profile(name: str, **kwargs) -> ScenarioConfig:
    """Look up a named profile (``tiny``/``small``/``year2020``/``year2015``)."""
    try:
        factory = PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        ) from None
    return factory(**kwargs)
