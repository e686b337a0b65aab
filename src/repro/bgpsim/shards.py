"""Precomputed on-disk shards with zero-copy mmap readers.

Every headline metric in the paper — reachability, path lengths,
reliance, hegemony — is a pure function of a per-origin routing state,
and the compiled engine already represents those states as flat arrays
(:class:`~repro.bgpsim.compiled.CompiledRoutingState`).  This module
persists them, and the metric answers computed from them, as *shards*:
append-only files of per-origin records that a reader maps once and
decodes **zero-copy** — every array it hands out is a ``memoryview``
slice aliased onto the map, exactly the buffer-protocol objects the
numpy kernels ``np.frombuffer`` (the same trick :mod:`repro.bgpsim.shm`
plays with worker payloads, and the same packing rule,
:func:`~repro.bgpsim.shm.layout`).  Both record kinds share one sealed
container (little-endian, every array 8-byte aligned):

.. code-block:: text

   header   magic (names the record kind) | version u32 | flags u32
            | n_nodes u64 | n_records u64 | index_off u64 (0 while
            unsealed) | n_tables u64 | sha256 graph digest      [80 B]
   tables   file-level typed arrays: one descriptor each (fmt char
            | pad | offset u64 | nbytes u64), then the arrays
   records  per origin: origin u64, one descriptor per array, then
            the arrays; descriptor offsets count from the record start
   index    n_records × (origin u64 | record offset u64 | nbytes u32
            | zlib.crc32 u32), in write order

*Routing shards* (magic ``RPBGPSH1``) hold the ASN table and, per
origin, the six state arrays.  *Metric shards* (``RPBGMET1``) hold the
ASN table, the hegemony target set and trim, and per origin the answers
of the paper's metric kernels: the §7 reliance mass vector, the
tied-best-path counts, the fused local-hegemony row toward the targets
(Fontugne et al.) and the routed count, every float produced by the
kernels a live query runs, so served answers are bit-identical to
kernel-per-request (``float.hex()``-asserted in
``tests/test_metric_shards.py``).

The writer seals a file by back-patching ``index_off``, so a crash
mid-write leaves a file readers reject as unsealed.  The graph digest
binds a file to the CSR snapshot it was computed over.  A record's crc32
is checked the first time a reader maps it, so a flipped byte raises
:class:`ShardError` naming the file and origin instead of being served.
Records are relocatable, so :meth:`ShardStore.compact` merges files by
copying crc-checked bytes.  Version-1 files are rejected with a message
to rebuild.

:class:`ShardStore` manages a *content-addressed results directory* —
``<root>/<digest16>/manifest.json`` plus shard files — built by
:func:`precompute_shards` (the bit-parallel sweeps of
:func:`~repro.bgpsim.parallel.propagate_origins`) and
:func:`precompute_metric_shards` (``states_for_many(stream=True)``, off
the routing shards when present); both stream in O(batch) memory and
resume partial corpora.  A corpus also carries *leases*
(``leases/<pid>-<token>.lease``): every serving process that opens the
store with ``lease=True`` registers its pid, and
:meth:`ShardStore.compact` / :func:`gc_corpora` refuse to rewrite or
delete a corpus something live still maps.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import shutil
import struct
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import Any, Optional

from .compiled import CompiledGraph, CompiledRoutingState
from .routes import Seed
from .shm import layout, view_of

__all__ = [
    "DEFAULT_METRIC_TARGETS",
    "DEFAULT_SHARD_SIZE",
    "LEASE_DIR",
    "MANIFEST_NAME",
    "MetricShardReader",
    "MetricShardStore",
    "MetricShardWriter",
    "ShardError",
    "ShardReader",
    "ShardStore",
    "ShardWriter",
    "default_metric_targets",
    "gc_corpora",
    "graph_digest",
    "live_leases",
    "precompute_metric_shards",
    "precompute_shards",
]

_VERSION = 2
#: header: magic, version, flags, n_nodes, n_records, index_off,
#: n_tables, graph digest
_HEADER = struct.Struct("<8sIIQQQQ32s")
#: one typed-array descriptor: fmt char (+pad), offset, nbytes
_ENTRY = struct.Struct("<c7xQQ")
#: a record's head: its origin ASN
_ORIGIN = struct.Struct("<Q")
#: one index row: origin ASN, record offset, record nbytes, crc32
_INDEX = struct.Struct("<QQII")
#: what a corrupt table, descriptor or row raises while it is decoded
_DECODE_ERRORS = (struct.error, ValueError, TypeError)

_MAGIC = b"RPBGPSH1"
#: the state arrays a routing record stores, in on-disk order; the ASN
#: table is file-level (stored once, aliased by every origin's state)
_RECORD_FIELDS = (
    "_route_class",
    "_length",
    "_parent_head",
    "_pool_parent",
    "_pool_next",
    "_routed",
)

_MET_MAGIC = b"RPBGMET1"
#: metric record flag: every tied-best-path count fit a float64 exactly
_MET_EXACT_COUNTS = 1
#: the float64 arrays a metric record stores, in on-disk order; a
#: fourth ``Q`` array holds the routed count and the flags
_MET_FIELDS = ("reliance", "counts", "hegemony")

MANIFEST_NAME = "manifest.json"
LEASE_DIR = "leases"

#: default origins per shard file; small enough that a partial
#: precompute flushes regularly, large enough that a paper-scale corpus
#: stays at a few dozen files
DEFAULT_SHARD_SIZE = 4096

#: default hegemony target-set size for metric shards: the paper's
#: hegemony questions are about the highest-degree transit networks, so
#: rows are precomputed toward the top-N ASes by adjacency (a full
#: n×n matrix would be O(n²) storage for answers nobody queries)
DEFAULT_METRIC_TARGETS = 64


class ShardError(RuntimeError):
    """A shard file or store is unreadable, unsealed, or mismatched."""


def graph_digest(graph) -> str:
    """SHA-256 hex digest of a graph's compiled CSR snapshot.

    Covers every adjacency array *and* its element format, so any
    topology change — and nothing else — changes the digest.  Shards
    carry it; readers refuse to serve states for a different graph.
    """
    cg: CompiledGraph = graph.compile()
    digest = hashlib.sha256()
    for name in (
        "asns",
        "provider_off",
        "provider_nbr",
        "customer_off",
        "customer_nbr",
        "peer_off",
        "peer_nbr",
    ):
        mv = memoryview(getattr(cg, name))
        digest.update(name.encode())
        digest.update(mv.format.encode())
        digest.update(mv.nbytes.to_bytes(8, "little"))
        digest.update(mv.cast("B"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the sealed container: one writer, one reader, two record schemas
# ---------------------------------------------------------------------------


def _pack(head: bytes, buffers: Sequence) -> bytearray:
    """``head`` (8-byte aligned), one descriptor per buffer, then the
    buffers, every descriptor offset counted from the block start."""
    entries, end = layout(buffers, len(head) + _ENTRY.size * len(buffers))
    block = bytearray(end)
    block[: len(head)] = head
    cursor = len(head)
    for (fmt, offset, nbytes), buf in zip(entries, buffers):
        _ENTRY.pack_into(block, cursor, fmt.encode(), offset, nbytes)
        block[offset : offset + nbytes] = memoryview(buf).cast("B")
        cursor += _ENTRY.size
    return block


def _unpack(buf, start: int, end: int, head: int, count: int) -> list:
    """The ``count`` arrays of the :func:`_pack` block at ``start``,
    aliased onto ``buf``; raises ``ValueError`` for one past ``end``."""
    views = []
    for k in range(count):
        fmt, offset, nbytes = _ENTRY.unpack_from(
            buf, start + head + k * _ENTRY.size
        )
        if start + offset + nbytes > end:
            raise ValueError(f"array {k} runs past its block")
        views.append(view_of(buf, fmt.decode(), start + offset, nbytes))
    return views


def _graph_identity(graph, digest, n_nodes, asns) -> tuple:
    """``(digest, n_nodes, asns)`` of ``graph``, else the given ones."""
    if graph is not None:
        cg = graph.compile()
        return graph_digest(cg), cg.n, cg.asns
    if digest is None or n_nodes is None or asns is None:
        raise ShardError(
            "a shard writer needs a graph, or digest + n_nodes + asns"
        )
    return digest, n_nodes, asns


class _SealedWriter:
    """Append records to one sealed shard file.

    The header is written as a placeholder (``index_off = 0``) up front
    and back-patched by :meth:`close` after the index, so an interrupted
    write never yields a readable-but-torn file.  An existing file at
    ``path`` is unlinked, never truncated: processes that map it keep the
    old inode.  Usable as a context manager.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        magic: bytes,
        digest: str,
        n_nodes: int,
        tables: Sequence,
    ) -> None:
        self.path = Path(path)
        self.digest = digest
        self._magic = magic
        self._n = n_nodes
        self._n_tables = len(tables)
        # origin -> (record offset, nbytes, crc32), in write order
        self._index: dict[int, tuple[int, int, int]] = {}
        self.path.unlink(missing_ok=True)
        self._handle = open(self.path, "xb")
        self._closed = False
        self._pos = 0
        self._write(self._header(0))
        self._write(_pack(b"", tables))

    def _header(self, index_off: int) -> bytes:
        return _HEADER.pack(
            self._magic,
            _VERSION,
            0,
            self._n,
            len(self._index),
            index_off,
            self._n_tables,
            bytes.fromhex(self.digest),
        )

    def _write(self, data) -> None:
        self._handle.write(data)
        self._pos += len(data)

    @property
    def origins(self) -> tuple[int, ...]:
        return tuple(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def append(self, origin: int, record) -> None:
        """Append one encoded record (its origin head first)."""
        if self._closed:
            raise ShardError(f"shard {self.path} is already sealed")
        if origin in self._index:
            raise ShardError(f"duplicate origin AS{origin}")
        self._write(bytes(-self._pos % 8))
        self._index[origin] = (self._pos, len(record), zlib.crc32(record))
        self._write(record)

    def close(self) -> None:
        """Write the index, seal the header, and fsync."""
        if self._closed:
            return
        self._write(bytes(-self._pos % 8))
        index_off = self._pos
        self._write(
            b"".join(
                _INDEX.pack(origin, *row)
                for origin, row in self._index.items()
            )
        )
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(self._header(index_off))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True

    def abandon(self) -> None:
        """Close without sealing: readers reject the file as unsealed."""
        self._handle.close()
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abandon()


class _SealedReader:
    """Memory-mapped random access to one sealed shard file.

    Opening reads the header, the file-level tables and the index, and
    no record bytes.  A record's crc32 is checked the first time it is
    mapped.  Readers are independent (several may map the same file) and
    lookups are thread-safe after construction (two threads may both
    check a record; the result is the same).
    """

    #: the magic naming the record kind, and the kind in messages
    magic = b""
    kind = "shard"
    #: arrays per record
    n_arrays = 0

    def __init__(
        self,
        path: str | os.PathLike,
        expected_digest: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise ShardError(f"cannot open shard {self.path}: {exc}") from exc
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < _HEADER.size:
                raise ShardError(
                    f"{self.kind} {self.path} is truncated "
                    f"({size} bytes < {_HEADER.size}-byte header)"
                )
            self._mm = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
            self._buf = memoryview(self._mm)
            self._open(size, expected_digest)
        except ShardError:
            self.close()
            raise
        except _DECODE_ERRORS as exc:
            self.close()
            raise ShardError(f"corrupted shard {self.path}: {exc}") from exc

    def _open(self, size: int, expected_digest: Optional[str]) -> None:
        """Parse the header, tables and index (no record bytes)."""
        (magic, version, _flags, self.n_nodes, n_records, index_off,
         n_tables, digest) = _HEADER.unpack_from(self._buf, 0)
        if magic != self.magic:
            raise ShardError(
                f"{self.path} is not a {self.kind} (bad magic {magic!r})"
            )
        if version != _VERSION:
            raise ShardError(
                f"{self.path} has shard format version {version}; this "
                f"reader understands {_VERSION} — rebuild the corpus with "
                "`repro precompute --force`"
            )
        if index_off == 0:
            raise ShardError(f"{self.path} is unsealed (interrupted write?)")
        index_end = index_off + n_records * _INDEX.size
        if index_end > size:
            raise ShardError(
                f"{self.path} is truncated ({size} bytes; "
                f"index ends at {index_end})"
            )
        self.digest = digest.hex()
        if expected_digest is not None and self.digest != expected_digest:
            raise ShardError(
                f"{self.path} was precomputed for graph "
                f"{self.digest[:16]}, expected {expected_digest[:16]}"
            )
        self._tables = _unpack(self._buf, _HEADER.size, index_off, 0, n_tables)
        self._load(*self._tables)
        if len(self.asns) != self.n_nodes:
            raise ShardError(
                f"corrupted shard {self.path}: ASN table holds "
                f"{len(self.asns)} entries for {self.n_nodes} nodes"
            )
        # origin -> (record offset, nbytes, crc32)
        self._index: dict[int, tuple[int, int, int]] = {}
        for origin, offset, nbytes, crc in _INDEX.iter_unpack(
            self._buf[index_off:index_end]
        ):
            if nbytes < _ORIGIN.size or offset + nbytes > index_off:
                raise ShardError(
                    f"corrupted shard {self.path}: the index row of "
                    f"AS{origin} points past the index"
                )
            self._index[origin] = (offset, nbytes, crc)
        # origins whose record passed its crc check
        self._checked: set[int] = set()

    def _load(self, asns) -> None:
        """Take the file-level tables (one argument per table)."""
        self.asns = asns

    # -- queries --------------------------------------------------------
    @property
    def origins(self) -> tuple[int, ...]:
        """Origins in record (precompute input) order."""
        return tuple(self._index)

    def __contains__(self, origin: int) -> bool:
        return origin in self._index

    def __len__(self) -> int:
        return len(self._index)

    def record_bytes(self, origin: int) -> memoryview:
        """``origin``'s encoded record, aliased onto the map, after its
        crc32 and origin head check out."""
        offset, nbytes, crc = self._index[origin]
        record = self._buf[offset : offset + nbytes]
        if zlib.crc32(record) != crc:
            raise ShardError(
                f"corrupted shard {self.path}: the record for AS{origin} "
                "fails its crc32 check"
            )
        (stored,) = _ORIGIN.unpack_from(record)
        if stored != origin:
            raise ShardError(
                f"corrupted shard {self.path}: index points AS{origin} "
                f"at a record for AS{stored}"
            )
        self._checked.add(origin)
        return record

    def _arrays(self, origin: int) -> list[memoryview]:
        """``origin``'s record arrays, aliased onto the map."""
        row = self._index.get(origin)
        if row is None:
            raise KeyError(f"AS{origin} not in {self.kind} {self.path}")
        if origin not in self._checked:
            self.record_bytes(origin)
        offset, nbytes, _crc = row
        try:
            return _unpack(
                self._buf, offset, offset + nbytes, _ORIGIN.size,
                self.n_arrays,
            )
        except _DECODE_ERRORS as exc:
            raise ShardError(
                f"corrupted shard {self.path}: the record for AS{origin} "
                f"is malformed ({exc})"
            ) from exc

    def check(self) -> int:
        """Check every record's crc32, raising :class:`ShardError` at
        the first bad one; returns the record count."""
        for origin in self._index:
            if origin not in self._checked:
                self.record_bytes(origin)
        return len(self._index)

    def close(self) -> None:
        """Release the map (idempotent).

        Records handed out earlier keep the map alive through their
        views; like the shared-memory arenas, a map pinned by live views
        is simply left for process exit to reclaim.
        """
        buf = self.__dict__.pop("_buf", None)
        if buf is not None:
            try:
                buf.release()
            except BufferError:
                pass
        mm = self.__dict__.pop("_mm", None)
        if mm is not None:
            try:
                mm.close()
            except BufferError:
                pass  # live record views pin the map; exit reclaims it
        handle = self.__dict__.pop("_file", None)
        if handle is not None:
            handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardWriter(_SealedWriter):
    """Append per-origin compiled routing states to one routing shard."""

    def __init__(
        self,
        path: str | os.PathLike,
        graph=None,
        *,
        digest: Optional[str] = None,
        n_nodes: Optional[int] = None,
        asns=None,
    ) -> None:
        digest, n_nodes, asns = _graph_identity(graph, digest, n_nodes, asns)
        super().__init__(path, _MAGIC, digest, n_nodes, (asns,))

    def add(self, origin: int, state) -> None:
        """Append ``origin``'s routing state.

        ``state`` must be an array-backed single-seed state: a
        :class:`~repro.bgpsim.compiled.CompiledRoutingState` for the
        plain ``Seed(asn=origin)`` (a
        :class:`~repro.bgpsim.multiorigin.BatchOriginView` is converted
        via ``to_compiled()``, which also shrinks its arrays to the
        smallest typecodes — the compact on-disk form).
        """
        to_compiled = getattr(state, "to_compiled", None)
        if to_compiled is not None:
            state = to_compiled()
        if not isinstance(state, CompiledRoutingState):
            raise ShardError(
                "shards hold array-backed compiled states; got "
                f"{type(state).__name__} (run the compiled engine)"
            )
        if state.seeds != (Seed(asn=origin),) or state._origin_mask is not None:
            raise ShardError(
                f"shard records are plain single-origin states; AS{origin} "
                f"got seeds {state.seeds!r}"
            )
        if len(state._asns) != self._n:
            raise ShardError(
                f"state for AS{origin} has {len(state._asns)} nodes, "
                f"shard graph has {self._n}"
            )
        self.append(
            origin,
            _pack(
                _ORIGIN.pack(origin),
                [getattr(state, field) for field in _RECORD_FIELDS],
            ),
        )

    def close(self) -> None:
        """Write the index, seal the header, and fsync (defined per
        writer class, so span tracing can wrap each one)."""
        super().close()


class ShardReader(_SealedReader):
    """Memory-mapped random access to one routing shard file.

    ``state_for`` materializes an origin's
    :class:`~repro.bgpsim.compiled.CompiledRoutingState` with every
    array aliased onto the map — no copies, no unpickling.
    """

    magic = _MAGIC
    kind = "routing shard"
    n_arrays = len(_RECORD_FIELDS)

    def state_for(self, origin: int) -> CompiledRoutingState:
        """``origin``'s routing state, arrays aliased onto the map."""
        return CompiledRoutingState(
            self.asns, (Seed(asn=origin),), *self._arrays(origin), None
        )


# ---------------------------------------------------------------------------
# metric shards: precomputed kernel answers, one record per origin
# ---------------------------------------------------------------------------


class MetricShardWriter(_SealedWriter):
    """Append per-origin precomputed metric rows to one metric shard.

    Each record holds three float64 arrays — the node-indexed reliance
    mass vector, the node-indexed tied-best-path counts, and the
    hegemony row toward the shard's fixed target set — plus the routed
    count; the file-level tables hold the target set and trim.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        graph=None,
        *,
        targets: Sequence[int],
        trim: float,
        digest: Optional[str] = None,
        n_nodes: Optional[int] = None,
        asns=None,
    ) -> None:
        digest, n_nodes, asns = _graph_identity(graph, digest, n_nodes, asns)
        self.targets = tuple(targets)
        self.trim = float(trim)
        super().__init__(
            path,
            _MET_MAGIC,
            digest,
            n_nodes,
            (asns, array("q", self.targets), array("d", [self.trim])),
        )

    def add(
        self,
        origin: int,
        reliance,
        counts,
        hegemony,
        routed_count: int,
        counts_exact: bool = True,
    ) -> None:
        """Append ``origin``'s precomputed metric row.

        ``reliance`` and ``counts`` are float64 buffers of length
        ``n_nodes`` (node-indexed, seeds zeroed in ``reliance``);
        ``hegemony`` is a float64 buffer of one value per shard target
        (NaN where target == origin).  ``counts_exact`` records whether
        every tied-best-path count survived the float64 round-trip.
        """
        buffers = (reliance, counts, hegemony)
        want = (self._n, self._n, len(self.targets))
        for name, buf, expect in zip(_MET_FIELDS, buffers, want):
            mv = memoryview(buf)
            if mv.format != "d" or len(mv) != expect:
                raise ShardError(
                    f"metric record {name} for AS{origin} must be "
                    f"{expect} float64s, got {len(mv)} {mv.format!r}"
                )
        flags = _MET_EXACT_COUNTS if counts_exact else 0
        self.append(
            origin,
            _pack(
                _ORIGIN.pack(origin),
                (*buffers, array("Q", (routed_count, flags))),
            ),
        )

    def close(self) -> None:
        """Write the index, seal the header, and fsync (defined per
        writer class, so span tracing can wrap each one)."""
        super().close()


class MetricRecord:
    """One origin's precomputed metric row, zero-copy off the map."""

    __slots__ = ("origin", "reliance", "counts", "hegemony",
                 "routed_count", "counts_exact")

    def __init__(self, origin, reliance, counts, hegemony,
                 routed_count, counts_exact) -> None:
        self.origin = origin
        self.reliance = reliance  # float64 memoryview, node-indexed
        self.counts = counts  # float64 memoryview, node-indexed
        self.hegemony = hegemony  # float64 memoryview, target-indexed
        self.routed_count = routed_count
        self.counts_exact = counts_exact


class MetricShardReader(_SealedReader):
    """Memory-mapped random access to one metric shard file.

    :meth:`record_for` returns float64 ``memoryview`` arrays aliased
    onto the map; :attr:`targets` and :attr:`trim` are the hegemony
    target set and trim the rows were computed with.
    """

    magic = _MET_MAGIC
    kind = "metric shard"
    n_arrays = len(_MET_FIELDS) + 1

    def _load(self, asns, targets, trim) -> None:
        self.asns = asns
        self.targets: tuple[int, ...] = tuple(targets)
        (self.trim,) = trim

    def record_for(self, origin: int) -> MetricRecord:
        """``origin``'s metric row, arrays aliased onto the map."""
        *rows, (routed_count, flags) = self._arrays(origin)
        return MetricRecord(
            origin, *rows, routed_count, bool(flags & _MET_EXACT_COUNTS)
        )


class MetricShardStore:
    """Per-corpus metric shards behind one origin → row lookup.

    The serving tier for ``/reliance`` and ``/hegemony``: a query is an
    O(1) record lookup plus one float read.  ``hegemony`` answers only
    targets in the precomputed target set (and never the ``NaN``
    origin-diagonal); everything else returns ``None`` so callers fall
    back to the live kernels.
    """

    def __init__(self, readers: Sequence[MetricShardReader]) -> None:
        if not readers:
            raise ShardError("a metric shard store needs >= 1 reader")
        first = readers[0]
        self.digest: str = first.digest
        self.targets: tuple[int, ...] = first.targets
        self.trim: float = first.trim
        self._readers = tuple(readers)
        for reader in self._readers[1:]:
            if reader.targets != self.targets or reader.trim != self.trim:
                raise ShardError(
                    f"{reader.path} disagrees with {first.path} on the "
                    "hegemony target set or trim — rebuild with "
                    "`repro precompute --metrics --force`"
                )
        self._asns = first.asns
        self._col = {asn: k for k, asn in enumerate(self.targets)}
        self._where: dict[int, MetricShardReader] = {}
        for reader in self._readers:
            for origin in reader.origins:
                self._where.setdefault(origin, reader)

    # -- queries --------------------------------------------------------
    def __contains__(self, origin: int) -> bool:
        return origin in self._where

    def __len__(self) -> int:
        return len(self._where)

    def origins(self) -> tuple[int, ...]:
        return tuple(self._where)

    def _idx(self, asn: int) -> Optional[int]:
        i = bisect_left(self._asns, asn)
        if i < len(self._asns) and self._asns[i] == asn:
            return i
        return None

    def record_for(self, origin: int) -> MetricRecord:
        reader = self._where.get(origin)
        if reader is None:
            raise KeyError(f"AS{origin} has no precomputed metric row")
        return reader.record_for(origin)

    def reliance(self, origin: int, target: int) -> Optional[float]:
        """``rely(origin, target)``, or ``None`` when not precomputed.

        Bit-identical to ``reliance_from_state(state).get(target, 0.0)``:
        the stored vector is the kernel's mass list with seed entries
        zeroed (the dict path excludes seeds and zero-mass nodes, which
        the vector holds as 0.0).
        """
        reader = self._where.get(origin)
        if reader is None:
            return None
        i = self._idx(target)
        if i is None:
            return None
        return reader.record_for(origin).reliance[i]

    def hegemony(self, origin: int, target: int) -> Optional[float]:
        """``H(origin, target)``, or ``None`` when not precomputed.

        ``None`` for origins outside the corpus, targets outside the
        precomputed target set, and the ``target == origin`` diagonal
        (stored as NaN; the live path defines it per-query).
        """
        reader = self._where.get(origin)
        if reader is None:
            return None
        col = self._col.get(target)
        if col is None:
            return None
        value = reader.record_for(origin).hegemony[col]
        if math.isnan(value):
            return None
        return value

    def path_counts(self, origin: int) -> Optional[dict[int, int]]:
        """ASN-keyed tied-best-path counts, or ``None`` when the row is
        missing or the counts overflowed float64 (flagged at write)."""
        reader = self._where.get(origin)
        if reader is None:
            return None
        record = reader.record_for(origin)
        if not record.counts_exact:
            return None
        asns, counts = self._asns, record.counts
        return {
            asns[i]: int(counts[i])
            for i in range(len(counts))
            if counts[i]
        }

    def routed_count(self, origin: int) -> Optional[int]:
        reader = self._where.get(origin)
        if reader is None:
            return None
        return reader.record_for(origin).routed_count

    def close(self) -> None:
        for reader in self._readers:
            reader.close()


# ---------------------------------------------------------------------------
# corpus leases: which live processes have a store mapped
# ---------------------------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _acquire_lease(directory: Path) -> Path:
    lease_dir = directory / LEASE_DIR
    lease_dir.mkdir(exist_ok=True)
    path = lease_dir / f"{os.getpid()}-{os.urandom(4).hex()}.lease"
    path.write_text(json.dumps({"pid": os.getpid()}) + "\n")
    return path


def live_leases(directory: str | os.PathLike) -> list[Path]:
    """Lease files under ``directory`` whose process is still alive.

    These are the corpus's refcounts: :meth:`ShardStore.compact` and
    :func:`gc_corpora` refuse to touch a corpus with a live lease.
    Stale leases (dead pids) are ignored here and cleaned up by the
    compaction paths.
    """
    alive = []
    for path in sorted(Path(directory).glob(f"{LEASE_DIR}/*.lease")):
        pid = None
        try:
            pid = json.loads(path.read_text()).get("pid")
        except (OSError, json.JSONDecodeError, AttributeError):
            pass
        if pid is None:
            try:
                pid = int(path.name.split("-", 1)[0])
            except ValueError:
                continue
        if _pid_alive(int(pid)):
            alive.append(path)
    return alive


def _reap_stale_leases(directory: Path) -> None:
    live = set(live_leases(directory))
    for path in Path(directory).glob(f"{LEASE_DIR}/*.lease"):
        if path not in live:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# shard stores: a content-addressed directory of shards + manifest
# ---------------------------------------------------------------------------


class ShardStore:
    """A directory of shards behind one origin → state lookup.

    The directory holds ``manifest.json`` (graph digest, engine and batch
    settings, per-shard origin ranges) and the shard files it names; origins
    resolve to their shard in O(1).  Open with :meth:`open`, which also
    accepts the *root* directory of a content-addressed tree — it then
    descends into ``<digest16>/`` for the supplied graph, falling back
    to scanning every corpus under the root for a matching digest (the
    newest wins) so renamed corpus directories keep working.

    When the manifest names metric shards (``repro precompute
    --metrics``), they are opened too and exposed as :attr:`metrics`
    (a :class:`MetricShardStore`, else ``None``).  ``lease=True``
    registers a pid lease under the corpus so compaction and GC know the
    store is live-mapped; :meth:`close` releases it.
    """

    def __init__(
        self,
        directory: Path,
        manifest: dict[str, Any],
        readers: Sequence[ShardReader],
        metrics: Optional[MetricShardStore] = None,
        lease: Optional[Path] = None,
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self.digest: str = manifest["graph_digest"]
        self.metrics = metrics
        self._lease = lease
        self._readers = tuple(readers)
        self._where: dict[int, ShardReader] = {}
        for reader in self._readers:
            for origin in reader.origins:
                self._where.setdefault(origin, reader)

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        graph=None,
        lease: bool = False,
    ) -> "ShardStore":
        """Open a shard directory (or a content-addressed root).

        With ``graph`` the store's digest is verified against it —
        mismatches raise :class:`ShardError` rather than silently
        serving states for a different topology — and a root with no
        matching corpus raises an error naming the expected digest.
        """
        root = Path(directory)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists() and graph is not None:
            digest = graph_digest(graph)
            candidate = root / digest[:16] / MANIFEST_NAME
            if candidate.exists():
                manifest_path = candidate
            else:
                manifest_path = _discover_corpus(root, digest)
        if not manifest_path.exists():
            raise ShardError(f"no {MANIFEST_NAME} under {root}")
        base = manifest_path.parent
        manifest = _load_manifest(manifest_path)
        digest = manifest["graph_digest"]
        readers: list[ShardReader] = []
        metric_readers: list[MetricShardReader] = []
        try:
            for key, reader_cls, opened in (
                ("shards", ShardReader, readers),
                ("metric_shards", MetricShardReader, metric_readers),
            ):
                for entry in manifest.get(key, ()):
                    path = base / entry["file"]
                    opened.append(reader_cls(path, expected_digest=digest))
        except ShardError:
            for reader in [*readers, *metric_readers]:
                reader.close()
            raise
        metrics = MetricShardStore(metric_readers) if metric_readers else None
        store = cls(
            base,
            manifest,
            readers,
            metrics=metrics,
            lease=_acquire_lease(base) if lease else None,
        )
        if graph is not None:
            try:
                store.verify(graph)
            except ShardError:
                store.close()
                raise
        return store

    def verify(self, graph) -> "ShardStore":
        """Raise :class:`ShardError` unless ``graph`` matches the store."""
        actual = graph_digest(graph)
        if actual != self.digest:
            raise ShardError(
                f"shard store {self.directory} was precomputed for graph "
                f"{self.digest[:16]}, but the serving graph is "
                f"{actual[:16]} — re-run `repro precompute`"
            )
        return self

    # -- queries --------------------------------------------------------
    def __contains__(self, origin: int) -> bool:
        return origin in self._where

    def __len__(self) -> int:
        return len(self._where)

    def origins(self) -> tuple[int, ...]:
        return tuple(self._where)

    def state_for(self, origin: int) -> CompiledRoutingState:
        reader = self._where.get(origin)
        if reader is None:
            raise KeyError(f"AS{origin} not in shard store {self.directory}")
        return reader.state_for(origin)

    def close(self) -> None:
        for reader in self._readers:
            reader.close()
        if self.metrics is not None:
            self.metrics.close()
        if self._lease is not None:
            self._lease.unlink(missing_ok=True)
            self._lease = None

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def check(self) -> dict[str, tuple[int, int]]:
        """Check the crc32 of every record in the corpus, raising
        :class:`ShardError` that names the first bad file and origin;
        returns ``{"routing" | "metric": (records, files)}``."""
        kinds = {"routing": self._readers, "metric": self._metric_readers()}
        return {
            kind: (sum(reader.check() for reader in readers), len(readers))
            for kind, readers in kinds.items()
        }

    def _metric_readers(self) -> tuple[MetricShardReader, ...]:
        return () if self.metrics is None else self.metrics._readers

    # -- compaction -----------------------------------------------------
    def compact(self, shard_size: Optional[int] = None) -> dict[str, Any]:
        """Merge rolling shard files into full-size ones, in place.

        Interrupted precomputes, ``shard_size`` flushes, and resume
        appends leave a corpus as many small files; this rewrites each
        record kind into ``ceil(origins / shard_size)`` files by copying
        every record's crc-checked bytes (records are relocatable, so
        merged records are byte-identical), atomically replaces the
        manifest, unlinks the superseded files, and reloads the store's
        readers.  A record that fails its check, or any other error
        before the manifest is replaced, raises with the merged files
        deleted and the corpus as it was.

        Refuses (:class:`ShardError`) while any *other* live process
        holds a lease on the corpus — their mmaps alias the very files
        compaction would delete.  Stale leases from dead pids are
        reaped.  Returns a stats dict (files/bytes before and after).
        """
        _reap_stale_leases(self.directory)
        others = [p for p in live_leases(self.directory) if p != self._lease]
        if others:
            raise ShardError(
                f"refusing to compact {self.directory}: "
                f"{len(others)} live lease(s) still map it "
                f"(e.g. {others[0].name})"
            )
        if shard_size is None:
            shard_size = int(
                self.manifest.get("shard_size", DEFAULT_SHARD_SIZE)
            )
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        stats = {
            "routing_files_before": len(self.manifest.get("shards", ())),
            "metric_files_before": len(
                self.manifest.get("metric_shards", ())
            ),
            "bytes_before": _manifest_bytes(self.manifest),
        }
        token = os.urandom(3).hex()
        manifest = dict(self.manifest)
        old_files: list[Path] = []
        try:
            for key, stem, suffix, readers in (
                ("shards", "shard", ".shard", self._readers),
                ("metric_shards", "metrics", ".mshard",
                 self._metric_readers()),
            ):
                infos = manifest.get(key, ())
                if not readers or not _needs_merge(infos, shard_size):
                    continue
                first = readers[0]
                manifest[key] = _write_rolling(
                    (
                        (origin, reader.record_bytes(origin))
                        for reader in readers
                        for origin in reader.origins
                    ),
                    lambda k: _SealedWriter(
                        self.directory / f"{stem}-{token}-{k:05d}{suffix}",
                        first.magic,
                        self.digest,
                        first.n_nodes,
                        first._tables,
                    ),
                    _SealedWriter.append,
                    shard_size,
                )
                old_files += [self.directory / e["file"] for e in infos]
            if old_files:
                manifest["shard_size"] = shard_size
                _write_manifest(self.directory, manifest)
        except BaseException:
            # leave the corpus as it was: drop this merge's files
            for path in self.directory.glob(f"*-{token}-*"):
                path.unlink(missing_ok=True)
            raise

        if old_files:
            # manifest now names only the merged files; old readers may
            # still map the superseded ones — close them before unlink
            for reader in (*self._readers, *self._metric_readers()):
                reader.close()
            for path in old_files:
                path.unlink(missing_ok=True)
            fresh = ShardStore.open(self.directory)
            self.manifest = fresh.manifest
            self._readers = fresh._readers
            self._where = fresh._where
            self.metrics = fresh.metrics

        stats.update(
            routing_files_after=len(self.manifest.get("shards", ())),
            metric_files_after=len(self.manifest.get("metric_shards", ())),
            bytes_after=_manifest_bytes(self.manifest),
            merged=bool(old_files),
        )
        return stats


# ---------------------------------------------------------------------------
# precompute drivers
# ---------------------------------------------------------------------------


def _write_rolling(
    records: Iterable[tuple[int, Any]],
    open_writer: Callable[[int], _SealedWriter],
    write: Callable[[Any, int, Any], None],
    shard_size: int,
    progress=None,
    total: int = 0,
) -> list[dict[str, Any]]:
    """Stream ``(origin, item)`` pairs into files of ``shard_size``
    records: ``open_writer(k)`` opens the ``k``-th file and
    ``write(writer, origin, item)`` appends one record.  Returns the
    manifest entry of every sealed file; on any error the open file is
    abandoned unsealed and the error propagates."""
    infos: list[dict[str, Any]] = []
    writer = None
    try:
        for done, (origin, item) in enumerate(records, 1):
            if writer is None:
                writer = open_writer(len(infos))
            write(writer, origin, item)
            if progress is not None:
                progress(done, total)
            if len(writer) >= shard_size:
                writer.close()
                infos.append(_shard_info(writer))
                writer = None
        if writer is not None:
            writer.close()
            infos.append(_shard_info(writer))
            writer = None
    finally:
        if writer is not None:
            writer.abandon()
    return infos


def precompute_shards(
    graph,
    out_root: str | os.PathLike,
    origins: Optional[Sequence[int]] = None,
    workers: int | str | None = None,
    batch: Optional[int] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    force: bool = False,
    progress=None,
) -> Path:
    """Precompute routing shards for ``origins`` (default: every AS).

    Fans the origin set through the bit-parallel batched sweeps of
    :func:`~repro.bgpsim.parallel.propagate_origins` (``workers``
    processes, ``REPRO_BATCH``-sized batches; always the compiled engine,
    whatever ``REPRO_ENGINE`` says, since a shard holds only compiled
    array states) and streams the per-origin
    states into shard files of ``shard_size`` origins under the
    content-addressed directory ``<out_root>/<digest16>/``, consuming
    each batch as it completes — peak memory stays O(batch) regardless
    of the origin-set size.  Writes ``manifest.json`` last (its presence
    marks the corpus complete); an existing complete corpus covering the
    requested origins is reused unless ``force``.

    A valid corpus that covers only *part* of the request is **resumed**,
    not discarded: its shard files are kept, only the missing origins are
    propagated (into new shards appended after the existing ones), and
    the merged manifest covers both — so extending a precomputed corpus
    to more origins costs only the new origins' sweeps.  ``force``
    rebuilds from scratch either way.

    Returns the content-addressed directory.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    from .parallel import propagate_origins

    cg: CompiledGraph = graph.compile()
    digest = graph_digest(cg)
    target = Path(out_root) / digest[:16]
    origin_list = (
        sorted(cg.asns) if origins is None else list(dict.fromkeys(origins))
    )
    existing_infos: list[dict[str, Any]] = []
    carried: dict[str, Any] = {}
    covered = 0
    if not force and (target / MANIFEST_NAME).exists():
        try:
            store = ShardStore.open(target)
        except ShardError:
            pass  # stale/torn corpus: rebuild below
        else:
            have = set(store.origins())
            existing_infos = list(store.manifest.get("shards", ()))
            # a resume must not drop the corpus's metric shards
            carried = {
                key: store.manifest[key]
                for key in store.manifest
                if key.startswith("metric_")
            }
            covered = len(have)
            store.close()
            if set(origin_list) <= have:
                return target
            # resume: keep the existing shards, compute only the gap
            origin_list = [o for o in origin_list if o not in have]
    target.mkdir(parents=True, exist_ok=True)

    first = len(existing_infos)
    shard_infos = existing_infos + _write_rolling(
        propagate_origins(
            graph,
            origin_list,
            workers=workers,
            engine="compiled",
            batch=batch,
        ),
        lambda k: ShardWriter(target / f"shard-{first + k:05d}.shard", cg),
        ShardWriter.add,
        shard_size,
        progress,
        len(origin_list),
    )

    manifest = _new_manifest(cg, digest, workers, batch, shard_size)
    manifest.update(
        origins=covered + len(origin_list), shards=shard_infos, **carried
    )
    _write_manifest(target, manifest)
    return target


def _new_manifest(cg, digest: str, workers, batch, shard_size: int) -> dict:
    """A manifest naming no shard files yet, stamped with the settings
    the corpus is built under."""
    from .multiorigin import resolve_batch
    from .parallel import resolve_workers
    from .shm import resolve_shm

    return {
        "format": "repro.bgpsim.shards",
        "version": _VERSION,
        "graph_digest": digest,
        "n_nodes": cg.n,
        "origins": 0,
        "engine": "compiled",
        "workers": resolve_workers(workers),
        "batch": resolve_batch(batch),
        "shm": resolve_shm(),
        "shard_size": shard_size,
        "shards": [],
    }


def _shard_info(writer: _SealedWriter) -> dict[str, Any]:
    origins = writer.origins
    return {
        "file": writer.path.name,
        "origins": len(origins),
        "first": min(origins),
        "last": max(origins),
        "bytes": writer.path.stat().st_size,
    }


def _load_manifest(manifest_path: Path) -> dict[str, Any]:
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardError(f"unreadable manifest {manifest_path}: {exc}")
    if manifest.get("format") != "repro.bgpsim.shards":
        raise ShardError(f"{manifest_path} is not a shard manifest")
    if not manifest.get("graph_digest"):
        raise ShardError(f"{manifest_path} carries no graph digest")
    return manifest


def _write_manifest(directory: Path, manifest: dict[str, Any]) -> None:
    """Atomically replace a corpus manifest (tmp file + rename)."""
    final = directory / MANIFEST_NAME
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(tmp, final)


def _manifest_bytes(manifest: dict[str, Any]) -> int:
    return sum(
        int(entry.get("bytes", 0))
        for key in ("shards", "metric_shards")
        for entry in manifest.get(key, ())
    )


def _needs_merge(infos: Sequence[dict[str, Any]], shard_size: int) -> bool:
    total = sum(int(entry["origins"]) for entry in infos)
    if not total:
        return False
    return len(infos) > -(-total // shard_size)


def _discover_corpus(root: Path, digest: str) -> Path:
    """The newest corpus manifest under ``root`` matching ``digest``.

    Scans one level of subdirectories (corpus dirs may have been
    renamed away from ``<digest16>``); several matches resolve to the
    most recently written manifest.  No match raises a
    :class:`ShardError` that names the digest the serving graph needs
    and every digest that *was* found.
    """
    matches: list[tuple[float, Path]] = []
    found: dict[str, str] = {}
    for manifest_path in sorted(root.glob(f"*/{MANIFEST_NAME}")):
        try:
            manifest = _load_manifest(manifest_path)
        except ShardError:
            continue  # torn or foreign manifest: not a candidate
        have = manifest["graph_digest"]
        found[manifest_path.parent.name] = have[:16]
        if have == digest:
            matches.append((manifest_path.stat().st_mtime, manifest_path))
    if matches:
        matches.sort()
        return matches[-1][1]
    others = (
        "; found corpora for "
        + ", ".join(f"{d} ({name}/)" for name, d in sorted(found.items()))
        if found
        else ""
    )
    raise ShardError(
        f"no shard corpus for graph {digest[:16]} under {root}{others} "
        f"— run `repro precompute` against the current topology"
    )


# ---------------------------------------------------------------------------
# metric precompute driver
# ---------------------------------------------------------------------------


def default_metric_targets(
    graph, count: int = DEFAULT_METRIC_TARGETS
) -> tuple[int, ...]:
    """The top-``count`` ASes by total adjacency, in ASN order.

    The deterministic default target set for precomputed hegemony rows:
    the paper's hegemony questions concern the highest-degree transit
    providers, and ties break toward the lower ASN so the set is stable
    across runs.
    """
    nodes = sorted(graph.nodes())
    ranked = sorted(
        nodes,
        key=lambda a: (
            -(
                len(graph.providers(a))
                + len(graph.customers(a))
                + len(graph.peers(a))
            ),
            a,
        ),
    )
    return tuple(sorted(ranked[: max(0, min(count, len(nodes)))]))


def _metric_batch_task(
    graph, origins: tuple[int, ...], targets: tuple[int, ...], trim: float
) -> list[tuple]:
    """The metric records of one batch of origins, in input order: one
    bit-parallel sweep, then one call of the batch metric kernel.

    A record is ``(reliance, counts, hegemony, routed_count,
    counts_exact)``, every float bit-identical to the live per-state
    kernels a query would run.  An origin whose tied-best-path counts
    pass 2**53 takes the big-int loops on its batch view, the one case
    where the float64 counts can be inexact.
    """
    from .multiorigin import propagate_batch
    from .vectorized import build_metric_dag_vector

    batch = propagate_batch(graph, origins)
    return [
        _metric_row_exact(batch.view_at(bit), origin, targets, trim)
        if row is None
        else (*row, True)
        for bit, (origin, row) in enumerate(
            zip(origins, build_metric_dag_vector(batch, targets, trim))
        )
    ]


def _metric_row_exact(state, origin: int, targets: tuple[int, ...], trim):
    """One origin's metric record through the big-int loops (seeds
    zeroed in the reliance vector, as the dict wrapper excludes them)."""
    from ..core.hegemony import _hegemony_values
    from .metrics_kernel import (
        path_counts_indexed,
        reliance_mass_kernel,
        routed_count_kernel,
    )

    dag, mass = reliance_mass_kernel(state)
    reliance = array("d", mass)
    for i in dag.seed_idx:
        reliance[i] = 0.0
    counts = path_counts_indexed(state)
    return (
        reliance,
        array("d", (float(c) for c in counts)),
        _hegemony_values(state, origin, targets, trim),
        routed_count_kernel(state),
        all(c < 2**53 for c in counts),
    )


def precompute_metric_shards(
    graph,
    out_root: str | os.PathLike,
    origins: Optional[Sequence[int]] = None,
    targets: Optional[Sequence[int]] = None,
    trim: Optional[float] = None,
    workers: int | str | None = None,
    batch: Optional[int] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    force: bool = False,
    progress=None,
) -> Path:
    """Precompute metric shards for ``origins`` (default: every AS).

    Maps :func:`_metric_batch_task` over ``batch``-wide chunks of the
    origins with :func:`~repro.bgpsim.parallel.graph_map` (``workers``
    processes), as the routing pass maps propagation: each task runs one
    bit-parallel sweep and the batch metric kernel, and returns its
    records in input order, so the files do not depend on ``workers``.
    The pass never reads the routing shards.  Each origin's reliance
    vector, tied-best-path counts, and hegemony row toward ``targets``
    (default: :func:`default_metric_targets`) go into metric shard files
    under the same content-addressed directory
    ``<out_root>/<digest16>/``, one batch of records in memory at a time.

    Resume semantics match :func:`precompute_shards`: existing metric
    shards are kept byte-untouched, only missing origins are computed
    (into new files appended after the existing ones), and the merged
    manifest covers both.  A resume must use the stored target set and
    trim — pass ``force=True`` to rebuild with different ones.

    Returns the content-addressed directory.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    from ..core.hegemony import TRIM
    from .multiorigin import resolve_batch
    from .parallel import graph_map

    cg: CompiledGraph = graph.compile()
    digest = graph_digest(cg)
    target_dir = Path(out_root) / digest[:16]
    origin_list = (
        sorted(cg.asns) if origins is None else list(dict.fromkeys(origins))
    )

    manifest: dict[str, Any] = {}
    routing_store: Optional[ShardStore] = None
    if (target_dir / MANIFEST_NAME).exists():
        try:
            routing_store = ShardStore.open(target_dir)
        except ShardError:
            routing_store = None
        else:
            manifest = dict(routing_store.manifest)

    try:
        existing_infos: list[dict[str, Any]] = []
        covered = 0
        stored = routing_store.metrics if routing_store is not None else None
        if stored is not None and force:
            # rebuild: drop the old metric shards (routing shards untouched)
            for entry in manifest.get("metric_shards", ()):
                (target_dir / entry["file"]).unlink(missing_ok=True)
            stored.close()
            stored = None
            for key in [k for k in manifest if k.startswith("metric_")]:
                del manifest[key]
        if stored is not None:
            if targets is not None and tuple(targets) != stored.targets:
                raise ShardError(
                    f"corpus {target_dir} already holds metric shards for "
                    f"{len(stored.targets)} targets; pass force=True to "
                    "rebuild with a different target set"
                )
            if trim is not None and float(trim) != stored.trim:
                raise ShardError(
                    f"corpus {target_dir} already holds metric shards with "
                    f"trim={stored.trim}; pass force=True to rebuild"
                )
            targets = stored.targets
            trim = stored.trim
            have = set(stored.origins())
            existing_infos = list(manifest.get("metric_shards", ()))
            covered = len(have)
            if set(origin_list) <= have:
                return target_dir
            origin_list = [o for o in origin_list if o not in have]

        target_tuple = tuple(
            targets if targets is not None else default_metric_targets(graph)
        )
        unknown = [t for t in target_tuple if t not in graph]
        if unknown:
            raise ShardError(f"hegemony target AS{unknown[0]} not in graph")
        trim_value = TRIM if trim is None else float(trim)
        target_dir.mkdir(parents=True, exist_ok=True)

        width = resolve_batch(batch)
        chunks = [
            tuple(origin_list[i : i + width])
            for i in range(0, len(origin_list), width)
        ]
        rows = graph_map(
            graph,
            _metric_batch_task,
            chunks,
            workers=workers,
            targets=target_tuple,
            trim=trim_value,
        )

        def records():
            # one batch of rows alive at a time: each is dropped before
            # the next batch is computed (a zip over ``rows`` would hold
            # it in its reused result tuple)
            chunk_iter = iter(chunks)
            for chunk_rows in rows:
                yield from zip(next(chunk_iter), chunk_rows)
                del chunk_rows

        first = len(existing_infos)
        shard_infos = existing_infos + _write_rolling(
            records(),
            lambda k: MetricShardWriter(
                target_dir / f"metrics-{first + k:05d}.mshard",
                targets=target_tuple,
                trim=trim_value,
                digest=digest,
                n_nodes=cg.n,
                asns=cg.asns,
            ),
            lambda writer, origin, row: writer.add(origin, *row),
            shard_size,
            progress,
            len(origin_list),
        )
    finally:
        if routing_store is not None:
            routing_store.close()

    manifest = manifest or _new_manifest(
        cg, digest, workers, batch, shard_size
    )
    manifest["metric_shards"] = shard_infos
    manifest["metric_targets"] = list(target_tuple)
    manifest["metric_trim"] = trim_value
    manifest["metric_origins"] = covered + len(origin_list)
    _write_manifest(target_dir, manifest)
    return target_dir


# ---------------------------------------------------------------------------
# garbage collection: retire corpora no retained graph can use
# ---------------------------------------------------------------------------


def gc_corpora(
    root: str | os.PathLike,
    keep_digests: Iterable[str],
) -> tuple[list[Path], list[Path], list[Path]]:
    """Delete corpora under ``root`` whose digest matches no kept graph.

    ``keep_digests`` holds the full sha256 digests of every retained
    topology snapshot (:func:`graph_digest`).  A corpus with a *live
    lease* — some running process still maps it — is refused rather
    than deleted, whatever its digest.  Stale leases (dead pids) are
    reaped first, so crashed servers do not pin garbage forever.

    Returns ``(removed, kept, refused)`` corpus directories.
    """
    keep = set(keep_digests)
    removed: list[Path] = []
    kept: list[Path] = []
    refused: list[Path] = []
    for manifest_path in sorted(Path(root).glob(f"*/{MANIFEST_NAME}")):
        corpus = manifest_path.parent
        try:
            manifest = _load_manifest(manifest_path)
        except ShardError:
            continue  # not a corpus of ours: never delete it
        if manifest["graph_digest"] in keep:
            kept.append(corpus)
            continue
        _reap_stale_leases(corpus)
        if live_leases(corpus):
            refused.append(corpus)
            continue
        shutil.rmtree(corpus)
        removed.append(corpus)
    return removed, kept, refused
