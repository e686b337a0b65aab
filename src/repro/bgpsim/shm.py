"""Zero-copy shared-memory payloads for the parallel sweeps.

:func:`~repro.bgpsim.parallel.graph_map` installs the compiled graph and
the per-sweep constant kwargs (timeline baselines, weight tables) in every
worker through the pool initializer.  Without this module those payloads
are *pickled once per worker* (and byte-copied even under ``fork``, as
soon as the interpreter touches the refcounts of the inherited arrays).
Here the big array payloads move into ``multiprocessing.shared_memory``
segments instead:

* the parent packs the CSR / routing-state arrays into one
  :class:`ShmArena` per payload and ships only a tiny :class:`ArenaRef`
  (segment name + entry table) through the initializer;
* each worker attaches the segment once and reconstructs the payload
  around zero-copy ``memoryview`` casts of the mapped buffer — the same
  buffer-protocol objects the numpy kernels ``np.frombuffer`` (no
  per-worker array copies at all);
* cleanup is refcounted: the parent unlinks its arenas when the sweep's
  pool shuts down (and an ``atexit`` hook sweeps leftovers), workers
  just close their maps on exit; the shared resource tracker keeps one
  idempotent entry per segment, removed by the creator's ``unlink``.

Every process pool uses shared memory whenever the platform supports
it (:func:`shm_available`, probed once with a throwaway segment) and
otherwise keeps the plain pickle path — which still ships constants only
once per worker via the initializer.  :func:`stats` surfaces per-process
``segments`` / ``payload_bytes`` / ``attaches`` / ``reuses`` counters
(workers report their own view — fetch it with a mapped task).
"""

from __future__ import annotations

import atexit
from typing import Any, Optional

from .compiled import CompiledGraph, CompiledRoutingState

__all__ = [
    "ArenaRef",
    "ShmArena",
    "layout",
    "resolve_shm",
    "shm_available",
    "share_payload",
    "restore_payload",
    "stats",
    "reset_stats",
    "view_of",
]

_stats = {
    "segments": 0,       # arenas created by this process
    "payload_bytes": 0,  # bytes packed into those arenas
    "attaches": 0,       # segments this process mapped by name
    "reuses": 0,         # attach() calls served from the local cache
}


def stats() -> dict[str, int]:
    """This process's shared-memory counters (a copy)."""
    return dict(_stats)


def reset_stats() -> None:
    _stats.update(segments=0, payload_bytes=0, attaches=0, reuses=0)


_available: Optional[bool] = None


def shm_available() -> bool:
    """True when this platform can create shared-memory segments
    (probed once with a throwaway segment — containers without
    ``/dev/shm`` fail the probe, not the sweep)."""
    global _available
    if _available is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


def resolve_shm(mode=None) -> bool:
    """Whether a process pool ships its payloads through shared memory:
    exactly when :func:`shm_available`.  Kept for run records that stamp
    every resolved performance setting."""
    del mode
    return shm_available()


def layout(buffers, start: int = 0) -> tuple[list[tuple], int]:
    """Lay ``buffers`` out back to back from ``start``.

    Returns one ``(format char, 8-byte-aligned offset, nbytes)`` entry
    per buffer and the end offset.  Shared-memory arenas and shard files
    both pack with this rule, so :func:`view_of` can cast every entry
    back to its element format.
    """
    entries = []
    end = start
    for buf in buffers:
        mv = memoryview(buf)
        offset = (end + 7) & ~7
        entries.append((mv.format, offset, mv.nbytes))
        end = offset + mv.nbytes
    return entries, end


def view_of(buf, fmt: str, offset: int, nbytes: int) -> memoryview:
    """The zero-copy view of one :func:`layout` entry inside ``buf``."""
    return buf[offset : offset + nbytes].cast(fmt)


# parent-side registry of live arenas, swept by atexit
_ARENAS: dict[str, "ShmArena"] = {}


def _sweep_arenas() -> None:
    for arena in list(_ARENAS.values()):
        arena.close()


atexit.register(_sweep_arenas)


class ShmArena:
    """One shared-memory segment packing several named buffers.

    ``buffers`` maps entry names to buffer-protocol objects (``array``,
    ``bytes``, or ``memoryview`` casts such as a shard-backed state's
    arrays), packed by :func:`layout` so attached views come back in
    their element format.  Usable as a context manager; :meth:`close`
    (idempotent) unmaps and unlinks.
    """

    def __init__(self, buffers: dict[str, Any]) -> None:
        from multiprocessing import shared_memory

        packed, total = layout(buffers.values())
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1)
        )
        self.name = self._shm.name
        self.entries = tuple(
            (name, *entry) for name, entry in zip(buffers, packed)
        )
        self.payload_bytes = total
        mv = self._shm.buf
        for (_, offset, nbytes), buf in zip(packed, buffers.values()):
            if nbytes:
                mv[offset : offset + nbytes] = memoryview(buf).cast("B")
        _stats["segments"] += 1
        _stats["payload_bytes"] += total
        _ARENAS[self.name] = self

    def ref(self) -> "ArenaRef":
        return ArenaRef(self.name, self.entries, self.payload_bytes)

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if _ARENAS.pop(self.name, None) is None:
            return
        try:
            self._shm.close()
        except BufferError:
            _PINNED.append(self._shm)  # a live view pins the map; unlink
            # proceeds regardless, and process exit frees the mapping
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# worker-side cache: segment name -> (SharedMemory, {entry: view}, refs)
_ATTACHED: dict[str, list] = {}

# maps whose close() failed because restored payloads still export views;
# kept referenced so GC never runs SharedMemory.__del__ on a pinned map
# (which would raise an unraisable BufferError) — process exit frees them
_PINNED: list = []


class ArenaRef:
    """Picklable handle to a :class:`ShmArena` (name + entry table)."""

    __slots__ = ("name", "entries", "payload_bytes")

    def __init__(self, name, entries, payload_bytes) -> None:
        self.name = name
        self.entries = entries
        self.payload_bytes = payload_bytes

    def __reduce__(self):
        return (ArenaRef, (self.name, self.entries, self.payload_bytes))

    def attach(self) -> dict[str, memoryview]:
        """Map the segment (cached per process) and return zero-copy
        views of its entries, cast to their element formats."""
        cached = _ATTACHED.get(self.name)
        if cached is not None:
            cached[2] += 1
            _stats["reuses"] += 1
            return cached[1]
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=self.name)
        # Attaching also registers the name with the resource tracker
        # (cpython #82300; ``track=False`` only exists from 3.13).
        # Under ``fork`` the tracker process is shared and its cache is
        # a set, so the duplicate registration is idempotent and the
        # creator's ``unlink`` performs the single removal — do NOT
        # unregister here, that would strip the creator's entry.
        views: dict[str, memoryview] = {}
        for name, *entry in self.entries:
            views[name] = view_of(shm.buf, *entry)
        _ATTACHED[self.name] = [shm, views, 1]
        _stats["attaches"] += 1
        return views

    def detach(self) -> None:
        """Drop one reference; the cached map closes at zero."""
        cached = _ATTACHED.get(self.name)
        if cached is None:
            return
        cached[2] -= 1
        if cached[2] <= 0:
            del _ATTACHED[self.name]
            cached[1].clear()
            try:
                cached[0].close()
            except BufferError:
                _PINNED.append(cached[0])  # views still exported; see above


# ---------------------------------------------------------------------------
# payload wrappers: pickle as a ref, restore as the original type
# ---------------------------------------------------------------------------

_GRAPH_FIELDS = (
    "asns",
    "provider_off",
    "provider_nbr",
    "customer_off",
    "customer_nbr",
    "peer_off",
    "peer_nbr",
)

_STATE_FIELDS = (
    "_asns",
    "_route_class",
    "_length",
    "_parent_head",
    "_pool_parent",
    "_pool_next",
    "_routed",
)


class SharedGraph:
    """A :class:`CompiledGraph` living in a shared-memory arena; pickles
    as the :class:`ArenaRef`, restores as a graph over attached views."""

    __slots__ = ("ref",)

    def __init__(self, ref: ArenaRef) -> None:
        self.ref = ref

    def restore(self) -> CompiledGraph:
        views = self.ref.attach()
        return CompiledGraph(*(views[field] for field in _GRAPH_FIELDS))


class SharedState:
    """A single-seed :class:`CompiledRoutingState` (a timeline's
    pre-event baseline) in a shared-memory arena."""

    __slots__ = ("ref", "seeds")

    def __init__(self, ref: ArenaRef, seeds) -> None:
        self.ref = ref
        self.seeds = seeds

    def restore(self) -> CompiledRoutingState:
        views = self.ref.attach()
        return CompiledRoutingState(
            views["_asns"],
            self.seeds,
            views["_route_class"],
            views["_length"],
            views["_parent_head"],
            views["_pool_parent"],
            views["_pool_next"],
            views["_routed"],
            None,
        )


def share_payload(obj: Any, arenas: list[ShmArena]) -> Any:
    """Move ``obj``'s array payload into a shared-memory arena.

    Returns a small picklable stand-in (:class:`SharedGraph` /
    :class:`SharedState`, recursing one level into dicts) and appends
    the owning arena(s) to ``arenas`` for cleanup; objects that cannot
    move (or a platform that cannot create segments) pass through
    unchanged, falling back to the pickle path.
    """
    try:
        if isinstance(obj, CompiledGraph):
            arena = ShmArena(
                {field: getattr(obj, field) for field in _GRAPH_FIELDS}
            )
            arenas.append(arena)
            return SharedGraph(arena.ref())
        if (
            isinstance(obj, CompiledRoutingState)
            and obj._origin_mask is None
        ):
            arena = ShmArena(
                {field: getattr(obj, field) for field in _STATE_FIELDS}
            )
            arenas.append(arena)
            return SharedState(arena.ref(), obj.seeds)
        if isinstance(obj, dict) and obj:
            shared = {
                key: share_payload(value, arenas)
                for key, value in obj.items()
            }
            if any(
                value is not obj[key] for key, value in shared.items()
            ):
                return shared
    except Exception:
        return obj  # e.g. segment creation failed: pickle instead
    return obj


def restore_payload(obj: Any) -> Any:
    """Worker-side inverse of :func:`share_payload`."""
    if isinstance(obj, (SharedGraph, SharedState)):
        return obj.restore()
    if isinstance(obj, dict):
        return {key: restore_payload(value) for key, value in obj.items()}
    return obj
