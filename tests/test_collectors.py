"""Unit tests for the route-collector simulation and MRT-style I/O."""

import ipaddress
import random

import pytest

from repro.bgpsim import Seed, propagate
from repro.collectors import (
    CollectorDump,
    MrtFormatError,
    RibEntry,
    collect_ribs,
    dumps_mrt,
    parse_mrt,
    parse_mrt_line,
)
from repro.netgen import build_scenario, tiny


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(tiny())


@pytest.fixture(scope="module")
def dump(scenario):
    return collect_ribs(
        scenario.graph,
        scenario.monitors,
        scenario.prefixes,
        rng=random.Random(1),
    )


class TestRibEntry:
    def test_origin_is_path_tail(self):
        entry = RibEntry(
            peer_asn=10,
            prefix=ipaddress.IPv4Network("16.0.0.0/16"),
            as_path=(10, 20, 30),
        )
        assert entry.origin == 30

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            RibEntry(10, ipaddress.IPv4Network("16.0.0.0/16"), ())
        with pytest.raises(ValueError):
            RibEntry(10, ipaddress.IPv4Network("16.0.0.0/16"), (11, 12))


class TestCollection:
    def test_every_monitor_reports_most_origins(self, scenario, dump):
        per_monitor = {}
        for entry in dump.entries:
            per_monitor.setdefault(entry.peer_asn, set()).add(entry.origin)
        assert set(per_monitor) == set(scenario.monitors)
        total = len(scenario.graph)
        for origins in per_monitor.values():
            assert len(origins) >= 0.9 * (total - 1)

    def test_paths_are_tied_best(self, scenario, dump):
        for entry in dump.entries[::97]:
            state = propagate(scenario.graph, Seed(asn=entry.origin))
            assert state.contains_path(entry.as_path)

    def test_prefixes_match_origin(self, scenario, dump):
        for entry in dump.entries[::53]:
            assert entry.prefix == scenario.prefixes[entry.origin]

    def test_restricted_origins(self, scenario):
        origins = sorted(scenario.graph.nodes())[:3]
        small_dump = collect_ribs(
            scenario.graph, scenario.monitors, scenario.prefixes,
            origins=origins, rng=random.Random(2),
        )
        assert small_dump.origins() <= set(origins)


class TestMrtFormat:
    def test_round_trip(self, dump):
        text = dumps_mrt(dump, timestamp=1599000000)
        again = parse_mrt(text)
        assert len(again) == len(dump)
        assert again.paths() == dump.paths()
        assert again.monitors() == dump.monitors()

    def test_parse_line(self):
        entry = parse_mrt_line(
            "TABLE_DUMP2|0|B|0.0.0.0|64500|16.0.0.0/16|64500 64501 64502|IGP"
        )
        assert entry.peer_asn == 64500
        assert entry.as_path == (64500, 64501, 64502)

    def test_parse_rejects_garbage(self):
        with pytest.raises(MrtFormatError):
            parse_mrt_line("nonsense")
        with pytest.raises(MrtFormatError):
            parse_mrt_line("TABLE_DUMP2|0|B|0.0.0.0|x|16.0.0.0/16|1 2|IGP")

    def test_parse_skips_comments_and_blanks(self):
        text = (
            "# collector dump\n\n"
            "TABLE_DUMP2|0|B|0.0.0.0|1|16.0.0.0/16|1 2|IGP\n"
        )
        dump = parse_mrt(text)
        assert len(dump) == 1

    def test_empty_dump(self):
        assert parse_mrt("") .entries == []
        assert dumps_mrt(CollectorDump()) == ""
