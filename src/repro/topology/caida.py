"""Readers and writers for CAIDA AS-relationship files.

Two formats are supported, matching the public datasets the paper uses:

* **serial-1** (``YYYYMMDD.as-rel.txt``): ``<provider>|<customer>|-1`` and
  ``<peer>|<peer>|0`` lines, with ``#`` comments.  The September 2015
  snapshot the paper's retrospective uses is in this format.
* **serial-2** (``YYYYMMDD.as-rel2.txt``): the same, plus a fourth ``source``
  field (``bgp`` or ``mlp``).  The September 2020 snapshot is serial-2.

Files may be plain text or bz2-compressed (CAIDA publishes ``.bz2``).
"""

from __future__ import annotations

import bz2
import io
import os
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO, Union

from .asgraph import ASGraph
from .relationships import Relationship, RelationshipRecord

PathLike = Union[str, os.PathLike]


class CaidaFormatError(ValueError):
    """Raised when a relationship file line cannot be parsed."""

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


def _open_text(path: PathLike) -> TextIO:
    path = Path(path)
    if path.suffix == ".bz2":
        return io.TextIOWrapper(bz2.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _fields(line: str, lineno: int) -> tuple[int, int, int, str]:
    """``(left, right, code, source)`` of one stripped relationship line.

    The one copy of the line rules :func:`parse_line`,
    :func:`parse_graph` and :func:`load_graph` share: 3 or 4 fields,
    integer ASNs and code, a known code, two distinct non-negative ASNs.
    """
    fields = line.split("|")
    if len(fields) not in (3, 4):
        raise CaidaFormatError(lineno, line, "expected 3 or 4 |-separated fields")
    try:
        left, right, code = int(fields[0]), int(fields[1]), int(fields[2])
    except ValueError:
        raise CaidaFormatError(lineno, line, "non-integer field") from None
    if code != -1 and code != 0:
        raise CaidaFormatError(lineno, line, "unknown relationship code")
    if left == right:
        raise CaidaFormatError(lineno, line, f"self-relationship for AS{left}")
    if left < 0 or right < 0:
        raise CaidaFormatError(lineno, line, "AS numbers must be non-negative")
    return left, right, code, fields[3] if len(fields) == 4 else ""


def parse_line(line: str, lineno: int = 0) -> RelationshipRecord:
    """Parse one non-comment relationship line (serial-1 or serial-2)."""
    left, right, code, source = _fields(line.strip(), lineno)
    return RelationshipRecord(left, right, Relationship(code), source)


def _lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` of every non-comment line."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def iter_records(lines: Iterable[str]) -> Iterator[RelationshipRecord]:
    """Yield records from an iterable of raw lines, skipping comments."""
    for lineno, line in _lines(lines):
        left, right, code, source = _fields(line, lineno)
        yield RelationshipRecord(left, right, Relationship(code), source)


def _read_graph(lines: Iterable[str]) -> ASGraph:
    """The graph of a relationship file's lines: each line is parsed to
    ints once and added straight into the adjacency sets
    (:meth:`ASGraph.from_edges`)."""
    return ASGraph.from_edges(
        (left, right, code == -1)
        for left, right, code, _ in (
            _fields(line, lineno) for lineno, line in _lines(lines)
        )
    )


def load_graph(path: PathLike) -> ASGraph:
    """Load an :class:`ASGraph` from a serial-1/serial-2 file (optionally bz2).

    Duplicate edges are tolerated; a line contradicting an earlier line
    (e.g. p2p after p2c for the same pair) raises.
    """
    with _open_text(path) as handle:
        return _read_graph(handle)


def parse_graph(text: str) -> ASGraph:
    """Load an :class:`ASGraph` from relationship-file text."""
    return _read_graph(text.splitlines())


def dump_graph(
    graph: ASGraph,
    path: PathLike,
    serial: int = 2,
    source: str = "bgp",
    header: str = "",
) -> None:
    """Write ``graph`` in CAIDA serial-1 (3 fields) or serial-2 (4 fields)."""
    if serial not in (1, 2):
        raise ValueError("serial must be 1 or 2")
    path = Path(path)
    opener = bz2.open if path.suffix == ".bz2" else open
    with opener(path, "wt", encoding="utf-8") as handle:  # type: ignore[operator]
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for record in graph.records():
            fields = [
                str(record.left),
                str(record.right),
                str(int(record.relationship)),
            ]
            if serial == 2:
                fields.append(record.source or source)
            handle.write("|".join(fields) + "\n")


def dumps_graph(graph: ASGraph, serial: int = 2, source: str = "bgp") -> str:
    """Return the relationship-file text for ``graph``."""
    lines = []
    for record in graph.records():
        fields = [
            str(record.left),
            str(record.right),
            str(int(record.relationship)),
        ]
        if serial == 2:
            fields.append(record.source or source)
        lines.append("|".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")
