"""BGP route collectors (RouteViews / RIPE-RIS style).

The CAIDA relationship data the paper consumes is inferred from AS paths
observed at public route collectors.  This module simulates the
collection step: monitor ASes peer with a collector and export their
tied-best path for every origin's prefix; the collector's RIB is the
resulting path table, serializable in an MRT-inspired pipe-separated text
format (``TABLE_DUMP2``-like) that round-trips through a parser.
"""

from __future__ import annotations

import ipaddress
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional, TextIO

from ..bgpsim.parallel import propagate_origins
from ..topology.asgraph import ASGraph


@dataclass(frozen=True)
class RibEntry:
    """One collector RIB row: a monitor's best path to a prefix."""

    peer_asn: int  # the monitor exporting the path
    prefix: ipaddress.IPv4Network
    as_path: tuple[int, ...]  # monitor first, origin last

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ValueError("empty AS path")
        if self.as_path[0] != self.peer_asn:
            raise ValueError("AS path must start at the peer ASN")

    @property
    def origin(self) -> int:
        return self.as_path[-1]


@dataclass
class CollectorDump:
    """A collector's full RIB snapshot."""

    entries: list[RibEntry] = field(default_factory=list)

    def paths(self) -> list[tuple[int, ...]]:
        return [entry.as_path for entry in self.entries]

    def monitors(self) -> frozenset[int]:
        return frozenset(entry.peer_asn for entry in self.entries)

    def origins(self) -> frozenset[int]:
        return frozenset(entry.origin for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def collect_ribs(
    graph: ASGraph,
    monitors: Iterable[int],
    prefixes: dict[int, ipaddress.IPv4Network],
    origins: Optional[Sequence[int]] = None,
    rng: Optional[random.Random] = None,
    engine: Optional[str] = None,
) -> CollectorDump:
    """Simulate a collector RIB: each monitor's tied-best path per origin.

    Ties are broken by a deterministic walk over the best-path DAG (the
    supplied ``rng`` picks among tied parents), mirroring the fact that a
    real monitor exports exactly one best path.  The per-origin states
    come from :func:`~repro.bgpsim.parallel.propagate_origins` (one
    bit-parallel sweep per batch of origins on the compiled engine) and
    each is dropped once its paths are walked, so the sweep holds one
    batch whatever the origin count.  The walk uses the per-AS route
    accessor, so the RNG stream (and the dump) is identical on either
    engine.
    """
    rng = rng or random.Random(0)
    monitors = sorted(set(monitors))
    if origins is None:
        origins = sorted(graph.nodes())
    dump = CollectorDump()
    for origin, state in propagate_origins(
        graph,
        [origin for origin in origins if origin in prefixes],
        engine=engine,
    ):
        for monitor in monitors:
            if monitor == origin:
                continue
            route = state.route(monitor)
            if route is None:
                continue
            path = [monitor]
            node = monitor
            while node != origin:
                node = rng.choice(sorted(state.route(node).parents))
                path.append(node)
            dump.entries.append(
                RibEntry(
                    peer_asn=monitor,
                    prefix=prefixes[origin],
                    as_path=tuple(path),
                )
            )
    return dump


# ---------------------------------------------------------------------------
# MRT-inspired text serialization
# ---------------------------------------------------------------------------

_RECORD_TYPE = "TABLE_DUMP2"


def dump_mrt(dump: CollectorDump, handle: TextIO, timestamp: int = 0) -> None:
    """Write a dump in the pipe-separated text form bgpdump emits."""
    for entry in dump.entries:
        path = " ".join(str(asn) for asn in entry.as_path)
        handle.write(
            f"{_RECORD_TYPE}|{timestamp}|B|0.0.0.0|{entry.peer_asn}|"
            f"{entry.prefix}|{path}|IGP\n"
        )


def dumps_mrt(dump: CollectorDump, timestamp: int = 0) -> str:
    import io

    buffer = io.StringIO()
    dump_mrt(dump, buffer, timestamp)
    return buffer.getvalue()


class MrtFormatError(ValueError):
    """Raised on malformed collector-dump lines."""


def parse_mrt_line(line: str, lineno: int = 0) -> RibEntry:
    fields = line.strip().split("|")
    if len(fields) != 8 or fields[0] != _RECORD_TYPE:
        raise MrtFormatError(f"line {lineno}: malformed record: {line!r}")
    try:
        peer_asn = int(fields[4])
        prefix = ipaddress.IPv4Network(fields[5])
        as_path = tuple(int(asn) for asn in fields[6].split())
    except ValueError as exc:
        raise MrtFormatError(f"line {lineno}: {exc}") from None
    return RibEntry(peer_asn=peer_asn, prefix=prefix, as_path=as_path)


def parse_mrt(text: str) -> CollectorDump:
    dump = CollectorDump()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        dump.entries.append(parse_mrt_line(line, lineno))
    return dump
