"""Unit tests for CAIDA relationship file parsing and serialization."""

import bz2

import pytest

from repro.netgen import build_scenario, profile
from repro.topology import (
    ASGraph,
    CaidaFormatError,
    Relationship,
    RelationshipConflictError,
    dump_graph,
    dumps_graph,
    iter_records,
    load_graph,
    parse_graph,
    parse_line,
)

SERIAL1 = """\
# inferred AS relationships
# provider|customer|-1, peer|peer|0
1|11|-1
2|12|-1
1|2|0
11|12|0
"""

SERIAL2 = """\
# serial-2 with source field
1|11|-1|bgp
1|2|0|bgp
100|12|0|mlp
"""


class TestParsing:
    def test_parse_line_serial1(self):
        record = parse_line("3356|15169|-1")
        assert record.left == 3356
        assert record.right == 15169
        assert record.relationship is Relationship.PROVIDER_CUSTOMER
        assert record.source == ""

    def test_parse_line_serial2(self):
        record = parse_line("6939|8075|0|mlp")
        assert record.relationship is Relationship.PEER_PEER
        assert record.source == "mlp"

    def test_parse_rejects_garbage(self):
        with pytest.raises(CaidaFormatError):
            parse_line("not a record")
        with pytest.raises(CaidaFormatError):
            parse_line("1|2")
        with pytest.raises(CaidaFormatError):
            parse_line("1|2|7")
        with pytest.raises(CaidaFormatError):
            parse_line("a|b|-1")
        with pytest.raises(CaidaFormatError):
            parse_line("5|5|0")

    def test_parse_graph_serial1(self):
        graph = parse_graph(SERIAL1)
        assert len(graph) == 4
        assert graph.customers(1) == {11}
        assert graph.peers(11) == {12}

    def test_parse_graph_serial2(self):
        graph = parse_graph(SERIAL2)
        assert graph.peers(100) == {12}

    def test_duplicate_lines_tolerated(self):
        graph = parse_graph("1|2|-1\n1|2|-1\n3|4|0\n4|3|0\n")
        assert graph.edge_count() == 2

    def test_conflicting_lines_raise(self):
        with pytest.raises(Exception):
            parse_graph("1|2|-1\n1|2|0\n")


class TestRoundTrip:
    def test_dumps_and_parse_roundtrip(self, mini_graph):
        text = dumps_graph(mini_graph, serial=2)
        again = parse_graph(text)
        assert sorted(again.nodes()) == sorted(mini_graph.nodes())
        assert again.edge_count() == mini_graph.edge_count()
        for record in mini_graph.records():
            assert (
                again.relationship_between(record.left, record.right)
                is record.relationship
            )

    def test_serial1_has_three_fields(self, mini_graph):
        text = dumps_graph(mini_graph, serial=1)
        for line in text.splitlines():
            assert len(line.split("|")) == 3

    def test_file_roundtrip(self, mini_graph, tmp_path):
        path = tmp_path / "rel.txt"
        dump_graph(mini_graph, path, header="test snapshot")
        graph = load_graph(path)
        assert graph.edge_count() == mini_graph.edge_count()
        assert path.read_text().startswith("# test snapshot")

    def test_bz2_roundtrip(self, mini_graph, tmp_path):
        path = tmp_path / "rel.txt.bz2"
        dump_graph(mini_graph, path, serial=1)
        with bz2.open(path, "rt") as handle:
            assert "|" in handle.readline()
        graph = load_graph(path)
        assert graph.edge_count() == mini_graph.edge_count()

    def test_invalid_serial_rejected(self, mini_graph, tmp_path):
        with pytest.raises(ValueError):
            dump_graph(mini_graph, tmp_path / "x.txt", serial=3)


def _adjacency(graph):
    return [
        (asn, graph.providers(asn), graph.customers(asn), graph.peers(asn))
        for asn in graph.nodes()
    ]


#: (file text, line number, reason) of every malformed-line case
FORMAT_ERRORS = [
    ("1|2|-1\nnot a record\n", 2, "expected 3 or 4 |-separated fields"),
    ("# c\n1|2\n", 2, "expected 3 or 4 |-separated fields"),
    ("1|2|-1|bgp|x\n", 1, "expected 3 or 4 |-separated fields"),
    ("1|2|7\n", 1, "unknown relationship code"),
    ("a|b|-1\n", 1, "non-integer field"),
    ("\n\n5|5|0\n", 3, "self-relationship for AS5"),
    ("-1|2|0\n", 1, "AS numbers must be non-negative"),
]

#: relationship files whose later line contradicts an earlier one
CONFLICTS = [
    "1|2|-1\n1|2|0\n",
    "1|2|-1\n2|1|0\n",
    "1|2|-1\n2|1|-1\n",
    "1|2|0\n1|2|-1\n",
    "1|2|0\n2|1|-1\n",
]


class TestLoader:
    """``load_graph``/``parse_graph`` parse each line to ints once and
    fill the adjacency sets directly; they must build what adding every
    record through ``ASGraph.add_record`` builds, and reject what it
    rejects."""

    @pytest.fixture(scope="class")
    def mid_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("caida") / "mid.as-rel2.txt"
        dump_graph(build_scenario(profile("mid")).graph, path, header="mid")
        return path

    def test_mid_file_matches_add_record(self, mid_file):
        want = ASGraph()
        with open(mid_file, encoding="utf-8") as handle:
            for record in iter_records(handle):
                want.add_record(record)
        got = load_graph(mid_file)
        assert len(got) > 1000
        assert got.nodes() == want.nodes()
        assert _adjacency(got) == _adjacency(want)
        got.validate()

    def test_duplicates_keep_first_seen_node_order(self):
        text = "7|3|-1\n5|7|0\n7|3|-1\n7|5|0\n9|3|-1\n"
        want = ASGraph()
        for record in iter_records(text.splitlines()):
            want.add_record(record)
        got = parse_graph(text)
        assert got.nodes() == want.nodes() == [7, 3, 5, 9]
        assert _adjacency(got) == _adjacency(want)

    @pytest.mark.parametrize("text,lineno,reason", FORMAT_ERRORS)
    def test_format_errors(self, text, lineno, reason, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        for load in (lambda: parse_graph(text), lambda: load_graph(path)):
            with pytest.raises(CaidaFormatError) as info:
                load()
            assert (info.value.lineno, info.value.reason) == (lineno, reason)

    @pytest.mark.parametrize("text", CONFLICTS)
    def test_conflicts(self, text, tmp_path):
        path = tmp_path / "conflict.txt.bz2"
        with bz2.open(path, "wt") as handle:
            handle.write(text)
        for load in (lambda: parse_graph(text), lambda: load_graph(path)):
            with pytest.raises(RelationshipConflictError):
                load()
        want = ASGraph()
        with pytest.raises(RelationshipConflictError):
            for record in iter_records(text.splitlines()):
                want.add_record(record)
