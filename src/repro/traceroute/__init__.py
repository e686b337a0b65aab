"""Simulated Scamper traceroute campaigns from cloud VMs."""

from .artifacts import ArtifactModel
from .engine import TracerouteCampaign, vantage_points
from .model import NO_REPLY, Hop, TraceTable, Traceroute, VantagePoint
from .pathsim import PathExpander, expand_path, nearest_interconnect

__all__ = [
    "ArtifactModel",
    "Hop",
    "NO_REPLY",
    "PathExpander",
    "TraceTable",
    "Traceroute",
    "TracerouteCampaign",
    "VantagePoint",
    "expand_path",
    "nearest_interconnect",
    "vantage_points",
]
