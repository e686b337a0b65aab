"""Precomputed on-disk routing shards with zero-copy mmap readers.

Every headline metric in the paper — reachability, path lengths,
reliance, hegemony — is a pure function of a per-origin routing state,
and the compiled engine already represents those states as flat arrays
(:class:`~repro.bgpsim.compiled.CompiledRoutingState`).  This module
persists them: a *shard* is an append-only binary file packing many
origins' state arrays with a fixed header and a per-origin offset index,
so a :class:`ShardReader` can ``mmap`` the file once and materialize any
origin's state **zero-copy** — the state's arrays are ``memoryview``
slices aliased onto the map, exactly the buffer-protocol objects the
pure loops index and the vectorized kernels ``np.frombuffer`` (the same
trick :mod:`repro.bgpsim.shm` plays with worker payloads).  No route
objects are unpickled; opening a state is a dict lookup plus six
``memoryview.cast`` calls.

File layout (all integers little-endian, all payloads 8-byte aligned,
matching the shared-memory arena packing):

.. code-block:: text

   header   magic "RPBGPSH1" | version u32 | flags u32 | n_nodes u64
            | n_origins u64 | index_off u64 (0 while unsealed)
            | asns_off u64 | asns_nbytes u64 | asns fmt char | pad
            | sha256 graph digest (32 bytes)                     [96 B]
   asns     the shared ASN table, one copy per shard
   records  per origin: origin u64, then 6 entry descriptors
            (fmt char | pad | abs offset u64 | nbytes u64) for
            route_class / length / parent_head / pool_parent /
            pool_next / routed, then the 8-aligned array payloads
   index    n_origins × (origin u64, record offset u64)

The header is written last (the writer seals the file by back-patching
``index_off``), so a crash mid-write leaves ``index_off == 0`` and the
reader rejects the file instead of serving a torn state.  The graph
digest binds a shard to the exact CSR snapshot it was computed over;
readers and stores refuse shards whose digest does not match the serving
graph.

On top of single files, :class:`ShardStore` manages a *content-addressed
results directory* — ``<root>/<digest16>/manifest.json`` plus shard
files — and :func:`precompute_shards` fans the origin set through the
bit-parallel batched sweeps of
:func:`~repro.bgpsim.parallel.propagate_origins` to build one.
Correctness is anchored by the differential harness in
``tests/test_shards.py`` (mmap-aliased states ≡ ``propagate_compiled``
output on multiple netgen seeds).

**Metric shards** (magic ``RPBGMET1``) are the second record type in a
corpus: instead of state arrays they pack the *answers* of the paper's
metric kernels — per origin, the §7 reliance mass vector over every
node, the fused local-hegemony row toward a fixed target set (Fontugne
et al.), the tied-best-path counts both share, and the routed count.
All three payloads are float64 arrays, so ``/reliance`` and
``/hegemony`` queries become a single zero-copy ``memoryview`` read;
every stored float is produced by the same kernels the live path runs
(:func:`~repro.bgpsim.metrics_kernel.reliance_mass_kernel`,
``_hegemony_values``), so served answers are bit-identical to
kernel-per-request — asserted with exact ``float.hex()`` comparisons in
``tests/test_metric_shards.py`` and ``make bench-serve``.  The layout
mirrors routing shards: sealed header (``index_off`` back-patched on
close, torn writes rejected), the same sha256 graph digest, a shared
ASN table, plus a target table and the trim fraction the hegemony rows
were computed with.  :func:`precompute_metric_shards` streams states
through ``states_for_many(stream=True)`` (O(batch) memory at ``full``
scale, shard-accelerated when a routing corpus is present) and resumes
partial corpora exactly like :func:`precompute_shards`.

A corpus also carries *leases* (``leases/<pid>-<token>.lease``): every
serving process that opens the store with ``lease=True`` registers its
pid, and :meth:`ShardStore.compact` / :func:`gc_corpora` refuse to
rewrite or delete a corpus something live still maps.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import shutil
import struct
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Any, Optional

from .compiled import CompiledGraph, CompiledRoutingState
from .routes import Seed

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

_MAGIC = b"RPBGPSH1"
_VERSION = 1
#: header: magic, version, flags, n_nodes, n_origins, index_off,
#: asns_off, asns_nbytes, asns fmt char (+pad), graph digest
_HEADER = struct.Struct("<8sIIQQQQQc7x32s")
#: one per-origin record header: the origin ASN
_REC = struct.Struct("<Q")
#: one array entry descriptor: fmt char (+pad), abs offset, nbytes
_ENTRY = struct.Struct("<c7xQQ")
#: one offset-index row: origin ASN, record offset
_INDEX = struct.Struct("<QQ")

#: the state arrays a record stores, in on-disk order; ``_asns`` is
#: shard-level (stored once, aliased by every origin's state)
_RECORD_FIELDS = (
    "_route_class",
    "_length",
    "_parent_head",
    "_pool_parent",
    "_pool_next",
    "_routed",
)

_MET_MAGIC = b"RPBGMET1"
_MET_VERSION = 1
#: metric-shard header: magic, version, flags, n_nodes, n_origins,
#: index_off, asns_off, asns_nbytes, asns fmt char (+pad), targets_off,
#: n_targets, trim, graph digest
_MET_HEADER = struct.Struct("<8sIIQQQQQc7xQQd32s")
#: one metric record header: origin ASN, flags, routed count
_MET_REC = struct.Struct("<QQQ")
#: metric record flag: every tied-best-path count fit a float64 exactly
_MET_EXACT_COUNTS = 1
#: the float64 payloads a metric record stores, in on-disk order
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


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _fmt_of(buf: Any) -> str:
    """The element format char of a state buffer (``B`` for raw bytes)."""
    if isinstance(buf, array):
        return buf.typecode
    if isinstance(buf, memoryview):
        return buf.format
    return "B"  # bytes / bytearray


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
        buf = getattr(cg, name)
        mv = memoryview(buf)
        digest.update(name.encode())
        digest.update(_fmt_of(buf).encode())
        digest.update(mv.nbytes.to_bytes(8, "little"))
        digest.update(mv.cast("B"))
    return digest.hexdigest()


class ShardWriter:
    """Append per-origin compiled states to one shard file.

    The header is written as a placeholder (``index_off = 0``) up front
    and back-patched by :meth:`close` after the offset index — an
    interrupted write therefore never yields a readable-but-torn shard.
    Usable as a context manager.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        graph=None,
        *,
        digest: Optional[str] = None,
        n_nodes: Optional[int] = None,
        asns=None,
    ) -> None:
        if graph is not None:
            cg = graph.compile() if hasattr(graph, "compile") else graph
            digest = graph_digest(cg)
            n_nodes = cg.n
            asns = cg.asns
        elif digest is None or n_nodes is None or asns is None:
            raise ShardError(
                "ShardWriter needs a graph, or digest + n_nodes + asns"
            )
        self.path = Path(path)
        self.digest = digest
        self._n = n_nodes
        self._asns_bytes = bytes(memoryview(asns).cast("B"))
        self._asns_fmt = _fmt_of(asns)
        # origin -> record offset, in write order
        self._index: dict[int, int] = {}
        self._handle = open(self.path, "wb")
        self._pos = 0
        self._write(b"\x00" * _HEADER.size)
        self._pad_to(_align8(self._pos))
        self._asns_off = self._pos
        self._write(self._asns_bytes)
        self._closed = False

    # -- low-level append ----------------------------------------------
    def _write(self, data: bytes) -> None:
        self._handle.write(data)
        self._pos += len(data)

    def _pad_to(self, target: int) -> None:
        if target > self._pos:
            self._write(b"\x00" * (target - self._pos))

    @property
    def origins(self) -> tuple[int, ...]:
        return tuple(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def add(self, origin: int, state) -> None:
        """Append ``origin``'s routing state.

        ``state`` must be an array-backed single-seed state: a
        :class:`~repro.bgpsim.compiled.CompiledRoutingState` for the
        plain ``Seed(asn=origin)`` (a
        :class:`~repro.bgpsim.multiorigin.BatchOriginView` is converted
        via ``to_compiled()``, which also shrinks its arrays to the
        smallest typecodes — the compact on-disk form).
        """
        if self._closed:
            raise ShardError(f"shard {self.path} is already sealed")
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
        if origin in self._index:
            raise ShardError(f"duplicate origin AS{origin}")

        buffers = [getattr(state, field) for field in _RECORD_FIELDS]
        record_off = _align8(self._pos)
        self._pad_to(record_off)
        # lay the payloads out after the descriptor table, 8-aligned
        cursor = record_off + _REC.size + _ENTRY.size * len(buffers)
        descriptors = []
        payloads = []
        for buf in buffers:
            data = bytes(memoryview(buf).cast("B"))
            cursor = _align8(cursor)
            descriptors.append((_fmt_of(buf).encode(), cursor, len(data)))
            payloads.append((cursor, data))
            cursor += len(data)
        self._write(_REC.pack(origin))
        for fmt, offset, nbytes in descriptors:
            self._write(_ENTRY.pack(fmt, offset, nbytes))
        for offset, data in payloads:
            self._pad_to(offset)
            self._write(data)
        self._index[origin] = record_off

    def close(self) -> None:
        """Write the offset index, seal the header, and fsync."""
        if self._closed:
            return
        index_off = _align8(self._pos)
        self._pad_to(index_off)
        for origin, record_off in self._index.items():
            self._write(_INDEX.pack(origin, record_off))
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            0,
            self._n,
            len(self._index),
            index_off,
            self._asns_off,
            len(self._asns_bytes),
            self._asns_fmt.encode(),
            bytes.fromhex(self.digest),
        )
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(header)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:  # abandon the torn file unsealed (readers will reject it)
            self._handle.close()
            self._closed = True


class ShardReader:
    """Memory-mapped random access to one shard file.

    ``state_for`` materializes an origin's
    :class:`~repro.bgpsim.compiled.CompiledRoutingState` with every
    array aliased onto the map — no copies, no unpickling.  Readers are
    independent (several may map the same file) and ``state_for`` is
    thread-safe after construction (reads only immutable lookups and the
    shared map).
    """

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
                    f"shard {self.path} is truncated "
                    f"({size} bytes < {_HEADER.size}-byte header)"
                )
            self._mm = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ShardError:
            self._file.close()
            raise
        self._buf = memoryview(self._mm)
        self._size = size
        try:
            (
                magic,
                version,
                _flags,
                self.n_nodes,
                n_origins,
                index_off,
                asns_off,
                asns_nbytes,
                asns_fmt,
                digest,
            ) = _HEADER.unpack_from(self._buf, 0)
            if magic != _MAGIC:
                raise ShardError(
                    f"{self.path} is not a routing shard "
                    f"(bad magic {magic!r})"
                )
            if version != _VERSION:
                raise ShardError(
                    f"{self.path} has shard format version {version}; "
                    f"this reader understands {_VERSION}"
                )
            if index_off == 0:
                raise ShardError(
                    f"{self.path} is unsealed (interrupted write?)"
                )
            index_end = index_off + n_origins * _INDEX.size
            if index_end > size or asns_off + asns_nbytes > size:
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
            fmt = asns_fmt.decode()
            asns_view = self._buf[asns_off : asns_off + asns_nbytes]
            self._asns = asns_view if fmt == "B" else asns_view.cast(fmt)
            self._index: dict[int, int] = {}
            for row in range(n_origins):
                origin, record_off = _INDEX.unpack_from(
                    self._buf, index_off + row * _INDEX.size
                )
                self._index[origin] = record_off
        except ShardError:
            self.close()
            raise
        except (struct.error, ValueError) as exc:
            self.close()
            raise ShardError(f"corrupted shard {self.path}: {exc}") from exc

    # -- queries --------------------------------------------------------
    @property
    def origins(self) -> tuple[int, ...]:
        """Origins in record (precompute input) order."""
        return tuple(self._index)

    def __contains__(self, origin: int) -> bool:
        return origin in self._index

    def __len__(self) -> int:
        return len(self._index)

    def state_for(self, origin: int) -> CompiledRoutingState:
        """``origin``'s routing state, arrays aliased onto the map."""
        record_off = self._index.get(origin)
        if record_off is None:
            raise KeyError(f"AS{origin} not in shard {self.path}")
        try:
            (stored,) = _REC.unpack_from(self._buf, record_off)
        except struct.error as exc:
            raise ShardError(
                f"corrupted shard {self.path}: record for AS{origin} "
                f"at {record_off} is out of bounds"
            ) from exc
        if stored != origin:
            raise ShardError(
                f"corrupted shard {self.path}: index points AS{origin} "
                f"at a record for AS{stored}"
            )
        views = []
        cursor = record_off + _REC.size
        for field in _RECORD_FIELDS:
            try:
                fmt, offset, nbytes = _ENTRY.unpack_from(self._buf, cursor)
            except struct.error as exc:
                raise ShardError(
                    f"corrupted shard {self.path}: torn entry table "
                    f"for AS{origin}"
                ) from exc
            cursor += _ENTRY.size
            if offset + nbytes > self._size:
                raise ShardError(
                    f"corrupted shard {self.path}: {field} of AS{origin} "
                    f"extends past end of file"
                )
            view = self._buf[offset : offset + nbytes]
            code = fmt.decode()
            views.append(view if code == "B" else view.cast(code))
        rc, length, head, pool_parent, pool_next, routed = views
        return CompiledRoutingState(
            self._asns,
            (Seed(asn=origin),),
            rc,
            length,
            head,
            pool_parent,
            pool_next,
            routed,
            None,
        )

    def close(self) -> None:
        """Release the map (idempotent).

        States handed out earlier keep the map alive through their
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
                pass  # live state views pin the map; exit reclaims it
        handle = self.__dict__.pop("_file", None)
        if handle is not None:
            handle.close()

    def __enter__(self) -> "ShardReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# metric shards: precomputed kernel answers, one record per origin
# ---------------------------------------------------------------------------


class MetricShardWriter:
    """Append per-origin precomputed metric rows to one metric shard.

    Each record holds three float64 payloads — the node-indexed reliance
    mass vector, the node-indexed tied-best-path counts, and the
    hegemony row toward the shard's fixed target set — plus the routed
    count.  Sealing works exactly like :class:`ShardWriter`: the header
    is zeros until :meth:`close` back-patches ``index_off``, so torn
    writes are rejected by readers.
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
        if graph is not None:
            cg = graph.compile() if hasattr(graph, "compile") else graph
            digest = graph_digest(cg)
            n_nodes = cg.n
            asns = cg.asns
        elif digest is None or n_nodes is None or asns is None:
            raise ShardError(
                "MetricShardWriter needs a graph, or digest + n_nodes + asns"
            )
        self.path = Path(path)
        self.digest = digest
        self.targets = tuple(targets)
        self.trim = float(trim)
        self._n = n_nodes
        self._asns_bytes = bytes(memoryview(asns).cast("B"))
        self._asns_fmt = _fmt_of(asns)
        # origin -> record offset, in write order
        self._index: dict[int, int] = {}
        self._handle = open(self.path, "wb")
        self._pos = 0
        self._write(b"\x00" * _MET_HEADER.size)
        self._pad_to(_align8(self._pos))
        self._asns_off = self._pos
        self._write(self._asns_bytes)
        self._pad_to(_align8(self._pos))
        self._targets_off = self._pos
        self._write(array("q", self.targets).tobytes())
        self._closed = False

    _write = ShardWriter._write
    _pad_to = ShardWriter._pad_to

    @property
    def origins(self) -> tuple[int, ...]:
        return tuple(self._index)

    def __len__(self) -> int:
        return len(self._index)

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
        if self._closed:
            raise ShardError(f"metric shard {self.path} is already sealed")
        buffers = (reliance, counts, hegemony)
        want = (self._n, self._n, len(self.targets))
        for name, buf, expect in zip(_MET_FIELDS, buffers, want):
            mv = memoryview(buf)
            if mv.format != "d" or len(mv) != expect:
                raise ShardError(
                    f"metric record {name} for AS{origin} must be "
                    f"{expect} float64s, got {len(mv)} {mv.format!r}"
                )
        if origin in self._index:
            raise ShardError(f"duplicate origin AS{origin}")
        record_off = _align8(self._pos)
        self._pad_to(record_off)
        cursor = record_off + _MET_REC.size + _ENTRY.size * len(buffers)
        descriptors = []
        payloads = []
        for buf in buffers:
            data = bytes(memoryview(buf).cast("B"))
            cursor = _align8(cursor)
            descriptors.append((b"d", cursor, len(data)))
            payloads.append((cursor, data))
            cursor += len(data)
        flags = _MET_EXACT_COUNTS if counts_exact else 0
        self._write(_MET_REC.pack(origin, flags, routed_count))
        for fmt, offset, nbytes in descriptors:
            self._write(_ENTRY.pack(fmt, offset, nbytes))
        for offset, data in payloads:
            self._pad_to(offset)
            self._write(data)
        self._index[origin] = record_off

    def close(self) -> None:
        """Write the offset index, seal the header, and fsync."""
        if self._closed:
            return
        index_off = _align8(self._pos)
        self._pad_to(index_off)
        for origin, record_off in self._index.items():
            self._write(_INDEX.pack(origin, record_off))
        header = _MET_HEADER.pack(
            _MET_MAGIC,
            _MET_VERSION,
            0,
            self._n,
            len(self._index),
            index_off,
            self._asns_off,
            len(self._asns_bytes),
            self._asns_fmt.encode(),
            self._targets_off,
            len(self.targets),
            self.trim,
            bytes.fromhex(self.digest),
        )
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(header)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "MetricShardWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:  # abandon the torn file unsealed (readers will reject it)
            self._handle.close()
            self._closed = True


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


class MetricShardReader:
    """Memory-mapped random access to one metric shard file.

    Shares the sealed-header/torn-write rejection and digest binding of
    :class:`ShardReader`; :meth:`record_for` returns float64
    ``memoryview`` payloads aliased onto the map.
    """

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
            if size < _MET_HEADER.size:
                raise ShardError(
                    f"metric shard {self.path} is truncated "
                    f"({size} bytes < {_MET_HEADER.size}-byte header)"
                )
            self._mm = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ShardError:
            self._file.close()
            raise
        self._buf = memoryview(self._mm)
        self._size = size
        try:
            (
                magic,
                version,
                _flags,
                self.n_nodes,
                n_origins,
                index_off,
                asns_off,
                asns_nbytes,
                asns_fmt,
                targets_off,
                n_targets,
                self.trim,
                digest,
            ) = _MET_HEADER.unpack_from(self._buf, 0)
            if magic != _MET_MAGIC:
                raise ShardError(
                    f"{self.path} is not a metric shard "
                    f"(bad magic {magic!r})"
                )
            if version != _MET_VERSION:
                raise ShardError(
                    f"{self.path} has metric shard format version "
                    f"{version}; this reader understands {_MET_VERSION}"
                )
            if index_off == 0:
                raise ShardError(
                    f"{self.path} is unsealed (interrupted write?)"
                )
            index_end = index_off + n_origins * _INDEX.size
            targets_end = targets_off + n_targets * 8
            if max(index_end, asns_off + asns_nbytes, targets_end) > size:
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
            fmt = asns_fmt.decode()
            asns_view = self._buf[asns_off : asns_off + asns_nbytes]
            self.asns = asns_view if fmt == "B" else asns_view.cast(fmt)
            self.targets: tuple[int, ...] = tuple(
                self._buf[targets_off:targets_end].cast("q")
            )
            self._index: dict[int, int] = {}
            for row in range(n_origins):
                origin, record_off = _INDEX.unpack_from(
                    self._buf, index_off + row * _INDEX.size
                )
                self._index[origin] = record_off
        except ShardError:
            self.close()
            raise
        except (struct.error, ValueError) as exc:
            self.close()
            raise ShardError(f"corrupted shard {self.path}: {exc}") from exc

    # -- queries --------------------------------------------------------
    @property
    def origins(self) -> tuple[int, ...]:
        return tuple(self._index)

    def __contains__(self, origin: int) -> bool:
        return origin in self._index

    def __len__(self) -> int:
        return len(self._index)

    def record_for(self, origin: int) -> MetricRecord:
        """``origin``'s metric row, payloads aliased onto the map."""
        record_off = self._index.get(origin)
        if record_off is None:
            raise KeyError(f"AS{origin} not in metric shard {self.path}")
        try:
            stored, flags, routed_count = _MET_REC.unpack_from(
                self._buf, record_off
            )
        except struct.error as exc:
            raise ShardError(
                f"corrupted shard {self.path}: record for AS{origin} "
                f"at {record_off} is out of bounds"
            ) from exc
        if stored != origin:
            raise ShardError(
                f"corrupted shard {self.path}: index points AS{origin} "
                f"at a record for AS{stored}"
            )
        views = []
        cursor = record_off + _MET_REC.size
        for field in _MET_FIELDS:
            try:
                fmt, offset, nbytes = _ENTRY.unpack_from(self._buf, cursor)
            except struct.error as exc:
                raise ShardError(
                    f"corrupted shard {self.path}: torn entry table "
                    f"for AS{origin}"
                ) from exc
            cursor += _ENTRY.size
            if fmt != b"d" or offset + nbytes > self._size:
                raise ShardError(
                    f"corrupted shard {self.path}: {field} of AS{origin} "
                    f"is malformed"
                )
            views.append(self._buf[offset : offset + nbytes].cast("d"))
        reliance, counts, hegemony = views
        return MetricRecord(
            origin,
            reliance,
            counts,
            hegemony,
            routed_count,
            bool(flags & _MET_EXACT_COUNTS),
        )

    close = ShardReader.close

    def __enter__(self) -> "MetricShardReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
            for entry in manifest.get("shards", ()):
                readers.append(
                    ShardReader(base / entry["file"], expected_digest=digest)
                )
            for entry in manifest.get("metric_shards", ()):
                metric_readers.append(
                    MetricShardReader(
                        base / entry["file"], expected_digest=digest
                    )
                )
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

    # -- compaction -----------------------------------------------------
    def compact(self, shard_size: Optional[int] = None) -> dict[str, Any]:
        """Merge rolling shard files into full-size ones, in place.

        Interrupted precomputes, ``shard_size`` flushes, and resume
        appends leave a corpus as many small files; this rewrites each
        record type into ``ceil(origins / shard_size)`` files (states
        and metric rows byte-identical — they round-trip through the
        same writers), atomically replaces the manifest, unlinks the
        superseded files, and reloads the store's readers.

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

        routing_infos = list(manifest.get("shards", ()))
        if _needs_merge(routing_infos, shard_size):
            merged: list[dict[str, Any]] = []
            writer: Optional[ShardWriter] = None
            reference = self._readers[0]
            for reader in self._readers:
                for origin in reader.origins:
                    if writer is None:
                        name = f"shard-{token}-{len(merged):05d}.shard"
                        writer = ShardWriter(
                            self.directory / name,
                            digest=self.digest,
                            n_nodes=reference.n_nodes,
                            asns=reference._asns,
                        )
                    writer.add(origin, reader.state_for(origin))
                    if len(writer) >= shard_size:
                        writer.close()
                        merged.append(_shard_info(writer))
                        writer = None
            if writer is not None and len(writer):
                writer.close()
                merged.append(_shard_info(writer))
            old_files += [self.directory / e["file"] for e in routing_infos]
            manifest["shards"] = merged

        metric_infos = list(manifest.get("metric_shards", ()))
        if self.metrics is not None and _needs_merge(metric_infos, shard_size):
            merged = []
            mwriter: Optional[MetricShardWriter] = None
            reference_m = self.metrics._readers[0]
            for reader in self.metrics._readers:
                for origin in reader.origins:
                    if mwriter is None:
                        name = f"metrics-{token}-{len(merged):05d}.mshard"
                        mwriter = MetricShardWriter(
                            self.directory / name,
                            targets=self.metrics.targets,
                            trim=self.metrics.trim,
                            digest=self.digest,
                            n_nodes=reference_m.n_nodes,
                            asns=reference_m.asns,
                        )
                    record = reader.record_for(origin)
                    mwriter.add(
                        origin,
                        record.reliance,
                        record.counts,
                        record.hegemony,
                        record.routed_count,
                        record.counts_exact,
                    )
                    if len(mwriter) >= shard_size:
                        mwriter.close()
                        merged.append(_metric_shard_info(mwriter))
                        mwriter = None
            if mwriter is not None and len(mwriter):
                mwriter.close()
                merged.append(_metric_shard_info(mwriter))
            old_files += [self.directory / e["file"] for e in metric_infos]
            manifest["metric_shards"] = merged

        if old_files:
            manifest["shard_size"] = shard_size
            _write_manifest(self.directory, manifest)
            # manifest now names only the merged files; old readers may
            # still map the superseded ones — close them before unlink
            for reader in self._readers:
                reader.close()
            if self.metrics is not None:
                self.metrics.close()
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
# precompute driver
# ---------------------------------------------------------------------------


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
    from .multiorigin import resolve_batch
    from .parallel import propagate_origins, resolve_workers
    from .shm import resolve_shm

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

    shard_infos: list[dict[str, Any]] = list(existing_infos)
    writer: Optional[ShardWriter] = None
    done = 0
    try:
        for origin, state in propagate_origins(
            graph,
            origin_list,
            workers=workers,
            engine="compiled",
            batch=batch,
        ):
            if writer is None:
                name = f"shard-{len(shard_infos):05d}.shard"
                writer = ShardWriter(target / name, cg)
            writer.add(origin, state)
            done += 1
            if progress is not None:
                progress(done, len(origin_list))
            if len(writer) >= shard_size:
                writer.close()
                shard_infos.append(_shard_info(writer))
                writer = None
        if writer is not None and len(writer):
            writer.close()
            shard_infos.append(_shard_info(writer))
            writer = None
    finally:
        if writer is not None:
            writer._handle.close()  # abandon unsealed on error

    manifest = {
        "format": "repro.bgpsim.shards",
        "version": _VERSION,
        "graph_digest": digest,
        "n_nodes": cg.n,
        "origins": covered + len(origin_list),
        "engine": "compiled",
        "workers": resolve_workers(workers),
        "batch": resolve_batch(batch),
        "shm": resolve_shm(),
        "shard_size": shard_size,
        "shards": shard_infos,
        **carried,
    }
    _write_manifest(target, manifest)
    return target


def _shard_info(writer: ShardWriter) -> dict[str, Any]:
    origins = writer.origins
    return {
        "file": writer.path.name,
        "origins": len(origins),
        "first": min(origins),
        "last": max(origins),
        "bytes": writer.path.stat().st_size,
    }


_metric_shard_info = _shard_info  # same fields, same meaning


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


def _metric_row(state, origin: int, targets: tuple[int, ...], trim: float):
    """One origin's metric record payloads, via the live kernels.

    Every float comes out of the exact code path a live query runs —
    :func:`~repro.bgpsim.metrics_kernel.reliance_mass_kernel` (seeds
    then zeroed, matching the dict wrapper's exclusion) and the fused
    ``_hegemony_values`` row — so serving a stored value is
    bit-identical to kernel-per-request.  The reliance mass and the
    float64 counts are taken straight from the DAG's numpy cache; only a
    DAG without one (tied-best-path counts above 2**53) takes the
    big-int route, the one case where the counts can be inexact.
    """
    from ..core.hegemony import _hegemony_values
    from .metrics_kernel import (
        path_counts_indexed,
        reliance_mass_kernel,
        routed_count_kernel,
    )
    from .vectorized import metric_row_buffers

    dag, mass = reliance_mass_kernel(state)
    buffers = metric_row_buffers(dag)
    if buffers is not None:
        reliance, counts_vec = buffers
        counts_exact = True
    else:
        reliance = array("d", mass)
        for i in dag.seed_idx:
            reliance[i] = 0.0
        counts = path_counts_indexed(state)
        counts_exact = all(c < 2**53 for c in counts)
        counts_vec = array("d", (float(c) for c in counts))
    hegemony = _hegemony_values(state, origin, targets, trim)
    return reliance, counts_vec, hegemony, routed_count_kernel(state), (
        counts_exact
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

    Streams per-origin compiled-engine states through
    ``RoutingStateCache.states_for_many(stream=True)`` — O(batch) peak
    memory at any corpus size, and served straight off the mmap disk
    tier when the corpus already holds routing shards — and writes each
    origin's reliance vector, tied-best-path counts, and fused hegemony
    row toward ``targets`` (default:
    :func:`default_metric_targets`) into metric shard files under the
    same content-addressed directory ``<out_root>/<digest16>/``.

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
    from .cache import RoutingStateCache

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
            routing_store.close()
            raise ShardError(
                f"corpus {target_dir} already holds metric shards for "
                f"{len(stored.targets)} targets; pass force=True to "
                "rebuild with a different target set"
            )
        if trim is not None and float(trim) != stored.trim:
            routing_store.close()
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
            routing_store.close()
            return target_dir
        origin_list = [o for o in origin_list if o not in have]

    target_tuple = tuple(
        targets if targets is not None else default_metric_targets(graph)
    )
    unknown = [t for t in target_tuple if t not in graph]
    if unknown:
        if routing_store is not None:
            routing_store.close()
        raise ShardError(f"hegemony target AS{unknown[0]} not in graph")
    trim_value = TRIM if trim is None else float(trim)
    target_dir.mkdir(parents=True, exist_ok=True)

    cache = RoutingStateCache(
        graph, engine="compiled", batch=batch, shards=routing_store
    )
    shard_infos: list[dict[str, Any]] = list(existing_infos)
    writer: Optional[MetricShardWriter] = None
    done = 0
    try:
        for origin, state in cache.states_for_many(
            origin_list, workers=workers, batch=batch, stream=True
        ):
            if writer is None:
                name = f"metrics-{len(shard_infos):05d}.mshard"
                writer = MetricShardWriter(
                    target_dir / name,
                    targets=target_tuple,
                    trim=trim_value,
                    digest=digest,
                    n_nodes=cg.n,
                    asns=cg.asns,
                )
            writer.add(origin, *_metric_row(state, origin, target_tuple,
                                            trim_value))
            done += 1
            if progress is not None:
                progress(done, len(origin_list))
            if len(writer) >= shard_size:
                writer.close()
                shard_infos.append(_metric_shard_info(writer))
                writer = None
        if writer is not None and len(writer):
            writer.close()
            shard_infos.append(_metric_shard_info(writer))
            writer = None
    finally:
        if writer is not None:
            writer._handle.close()  # abandon unsealed on error
        if routing_store is not None:
            routing_store.close()

    if not manifest:
        from .multiorigin import resolve_batch
        from .shm import resolve_shm

        manifest = {
            "format": "repro.bgpsim.shards",
            "version": _VERSION,
            "graph_digest": digest,
            "n_nodes": cg.n,
            "origins": 0,
            "engine": "compiled",
            "workers": 1,
            "batch": resolve_batch(batch),
            "shm": resolve_shm(),
            "shard_size": shard_size,
            "shards": [],
        }
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


def iter_store_states(
    store: ShardStore,
) -> Iterator[tuple[int, CompiledRoutingState]]:
    """``(origin, state)`` pairs for every origin in the store."""
    for origin in store.origins():
        yield origin, store.state_for(origin)
