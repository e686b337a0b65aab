"""``repro serve`` — the routing-state query service.

The paper's headline metrics are pure functions of per-origin routing
states, and the engine stack now has three tiers for obtaining one:

1. **warm** — the :class:`~repro.bgpsim.cache.RoutingStateCache` LRU;
2. **disk** — precomputed shards (``repro precompute``) memory-mapped by
   a :class:`~repro.bgpsim.shards.ShardStore`, O(1) per origin;
3. **cold** — a live propagation sweep.

This module puts an HTTP face on that stack: :class:`QueryService` is
the synchronous query core (one method per endpoint, fully testable
without sockets) and :func:`serve` wraps it in a stdlib-``asyncio``
HTTP/1.1 server with **request batching** — concurrent queries for
cache-missing origins are coalesced within a short window and warmed
through one bit-parallel ``prefetch`` sweep instead of N independent
propagations.

Endpoints (GET, JSON responses):

``/reachable?origin=A&target=B``
    whether B holds a route for A's prefix (+ class and path length)
``/path_length?origin=A&target=B``
    B's tied-best AS-path length toward A (``null`` when unreachable)
``/reliance?origin=A&target=B``
    the paper's provider-reliance mass ``rely(A, B)``
``/hegemony?origin=A&target=B``
    local AS hegemony ``H(A, B)`` (Fontugne et al.)
``/rib?origin=A&asn=B``
    B's RIB entry for A's prefix: class, length, tied parent set
``/stats`` · ``/health``
    tier counters (lru/metric/disk/computed), per-endpoint latency
    histograms, and liveness

``/reliance`` and ``/hegemony`` consult a fourth tier first when the
attached corpus carries **metric shards** (``repro precompute
--metrics``): the answer becomes a zero-copy float64 read off the mmap —
no routing state is touched at all — and falls back to the live kernels
for origins/targets the shards do not cover.  Stored values are written
by the same kernels that serve live queries, so the tiers are
bit-identical (asserted in tests and in-bench via ``float.hex()``).

:func:`serve` can also fan out across processes: ``repro serve
--workers N`` runs one asyncio server per worker process, each bound to
the same address via ``SO_REUSEPORT`` (the kernel load-balances
connections) and each mmapping the same content-addressed corpus — the
page cache is shared, so N workers cost one copy of the data.  A parent
:class:`WorkerSupervisor` restarts workers that die.

Every answer is derived from the same states live propagation produces —
the serve benchmark (``make bench-serve``) and the CI smoke leg assert
responses bit-identical to fresh ``propagate`` output.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
from bisect import bisect_left
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from .bgpsim.cache import DigestGate, RoutingStateCache
from .core.hegemony import TRIM, local_hegemony
from .core.reliance import reliance_from_state
from .topology.asgraph import ASGraph

__all__ = [
    "DEFAULT_MAXSIZE",
    "LatencyHistogram",
    "QueryError",
    "QueryService",
    "ServerHandle",
    "ServiceSpec",
    "WorkerSupervisor",
    "run_smoke_queries",
    "serve",
    "smoke_check",
    "smoke_expected",
    "start_server_thread",
]

#: default warm-tier bound: enough for a busy working set, bounded so a
#: long-running server over a paper-scale corpus cannot grow unbounded
DEFAULT_MAXSIZE = 1024

#: how long the batcher waits to coalesce concurrent cold origins
DEFAULT_BATCH_WINDOW = 0.002


class LatencyHistogram:
    """Fixed log-spaced latency buckets (stdlib only, GIL-atomic).

    Bounds span 1 µs – 10 s at 8 buckets per decade (57 bounds + one
    overflow bucket); a recorded duration lands in the first bucket
    whose upper bound covers it, so a reported percentile is the upper
    bound of its bucket — at most one bucket-width (~33%) above the true
    value, which is plenty for p50/p99 serving dashboards.  ``record``
    is a list-index increment and two adds, cheap enough for every
    request, and needs no lock under the GIL.
    """

    #: bucket upper bounds in seconds: 10^(k/8) µs for k = 0 .. 56
    BOUNDS = tuple(10.0 ** (k / 8 - 6.0) for k in range(57))

    __slots__ = ("counts", "total", "sum")

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.total = 0
        self.sum = 0.0

    def record(self, seconds: float) -> None:
        self.counts[bisect_left(self.BOUNDS, seconds)] += 1
        self.total += 1
        self.sum += seconds

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-quantile bucket bound in seconds (None when empty)."""
        if not self.total:
            return None
        rank = max(1, math.ceil(q * self.total))
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return self.BOUNDS[min(i, len(self.BOUNDS) - 1)]
        return self.BOUNDS[-1]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready summary: count, mean/p50/p99 in microseconds."""
        if not self.total:
            return {"count": 0, "mean_us": None, "p50_us": None,
                    "p99_us": None}
        return {
            "count": self.total,
            "mean_us": self.sum / self.total * 1e6,
            "p50_us": self.percentile(0.50) * 1e6,
            "p99_us": self.percentile(0.99) * 1e6,
        }


class QueryError(Exception):
    """An HTTP-mappable query failure (bad parameter, unknown AS)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class QueryService:
    """The synchronous query core behind every ``repro serve`` endpoint.

    Holds the tiered state stack — a
    :class:`~repro.bgpsim.cache.RoutingStateCache` (warm LRU), optionally
    backed by a precomputed :class:`~repro.bgpsim.shards.ShardStore`
    (mmap disk tier) — and answers one query per method call.  The HTTP
    layer is a thin wrapper over :meth:`answer`; tests and benchmarks
    call the service directly.

    ``metrics`` selects the metric-shard tier for ``/reliance`` and
    ``/hegemony``: the default ``"auto"`` adopts the attached shard
    store's :class:`~repro.bgpsim.shards.MetricShardStore` when the
    corpus carries metric shards, an explicit store overrides it, and
    ``None`` disables the tier (every metric query runs its live
    kernel).  Metric-tier answers are digest-gated exactly like the disk
    tier — a mutated topology falls back to the kernels — and
    hegemony rows are only served when the stored trim matches this
    service's ``trim``.
    """

    def __init__(
        self,
        graph: ASGraph,
        cache: Optional[RoutingStateCache] = None,
        shards=None,
        metrics="auto",
        maxsize: Optional[int] = DEFAULT_MAXSIZE,
        engine: Optional[str] = None,
        trim: float = TRIM,
    ) -> None:
        if cache is None:
            cache = RoutingStateCache(graph, maxsize=maxsize, engine=engine)
        if shards is not None:
            cache.attach_shards(shards)
        if metrics == "auto":
            store = cache.shards
            metrics = store.metrics if store is not None else None
        self.graph = graph
        self.cache = cache
        self.trim = trim
        self.metrics = metrics
        self._metric_gate = (
            None
            if metrics is None
            else DigestGate(graph, metrics.digest)
        )
        self.metric_hits = 0
        self.metric_misses = 0
        self.requests = 0
        self.latency: dict[str, LatencyHistogram] = {}
        self._routes = {
            "/health": self._ep_health,
            "/stats": self._ep_stats,
            "/reachable": self._ep_reachable,
            "/path_length": self._ep_path_length,
            "/reliance": self._ep_reliance,
            "/hegemony": self._ep_hegemony,
            "/rib": self._ep_rib,
        }

    # -- plumbing -------------------------------------------------------
    def _asn(self, params: dict[str, str], name: str) -> int:
        raw = params.get(name)
        if raw is None:
            raise QueryError(400, f"missing query parameter {name!r}")
        try:
            asn = int(raw)
        except ValueError:
            raise QueryError(400, f"{name} must be an AS number, got {raw!r}")
        if asn not in self.graph:
            raise QueryError(404, f"AS{asn} not in graph")
        return asn

    def _state(self, origin: int):
        return self.cache.state_for(origin)

    def _metric_lookup(self, kind: str, origin: int, target: int):
        """Consult the metric-shard tier; ``None`` means fall back.

        A miss (uncovered origin, non-node target, NaN diagonal, stale
        digest, trim mismatch) returns ``None`` and the caller runs the
        live kernel — ``0.0`` is a perfectly valid *hit*.
        """
        store = self.metrics
        if store is None:
            return None
        if kind == "hegemony" and store.trim != self.trim:
            self.metric_misses += 1
            return None
        if not self._metric_gate.ready():
            self.metric_misses += 1
            return None
        lookup = store.reliance if kind == "reliance" else store.hegemony
        value = lookup(origin, target)
        if value is None:
            self.metric_misses += 1
        else:
            self.metric_hits += 1
        return value

    def metric_covers(self, path: str, origin: int) -> bool:
        """Whether the metric tier can answer ``path`` for ``origin``
        without a routing state — lets the HTTP batcher skip warming
        the LRU for queries the shards will serve anyway (uncounted)."""
        endpoint = path.rstrip("/")
        if endpoint not in ("/reliance", "/hegemony") or self.metrics is None:
            return False
        if endpoint == "/hegemony" and self.metrics.trim != self.trim:
            return False
        return origin in self.metrics and self._metric_gate.ready()

    def warm(self, origins) -> int:
        """Batched warm-up for the request batcher: one bit-parallel
        prefetch sweep over the origins that are in the graph (unknown
        origins are left for their own requests to 404)."""
        known = [o for o in origins if o in self.graph]
        if not known:
            return 0
        return self.cache.prefetch(known)

    def answer(self, path: str, params: dict[str, str]) -> tuple[int, dict]:
        """Dispatch one query; returns ``(http_status, json_payload)``."""
        self.requests += 1
        endpoint = path.rstrip("/") or "/health"
        handler = self._routes.get(endpoint)
        if handler is None:
            return 404, {
                "error": f"unknown endpoint {path!r}",
                "endpoints": sorted(self._routes),
            }
        histogram = self.latency.get(endpoint)
        if histogram is None:
            histogram = self.latency.setdefault(endpoint, LatencyHistogram())
        start = time.perf_counter()
        try:
            return 200, handler(params)
        except QueryError as exc:
            return exc.status, {"error": exc.message}
        finally:
            histogram.record(time.perf_counter() - start)

    # -- endpoints ------------------------------------------------------
    def _ep_health(self, params: dict[str, str]) -> dict[str, Any]:
        return {
            "status": "ok",
            "nodes": len(self.graph.nodes()),
            "pid": os.getpid(),
        }

    def _ep_stats(self, params: dict[str, str]) -> dict[str, Any]:
        stats = self.cache.stats()
        payload: dict[str, Any] = dataclasses.asdict(stats)
        tiers = stats.tiers
        payload["tiers"] = {
            "lru": tiers["lru"],
            "metric": self.metric_hits,
            "disk": tiers["disk"],
            "computed": tiers["computed"],
        }
        payload["metric_hits"] = self.metric_hits
        payload["metric_misses"] = self.metric_misses
        payload["requests"] = self.requests
        payload["pid"] = os.getpid()
        payload["latency"] = {
            endpoint: histogram.snapshot()
            for endpoint, histogram in sorted(self.latency.items())
        }
        store = self.cache.shards
        payload["shards"] = (
            None
            if store is None
            else {
                "directory": str(store.directory),
                "origins": len(store),
                "graph_digest": store.digest[:16],
            }
        )
        payload["metrics"] = (
            None
            if self.metrics is None
            else {
                "origins": len(self.metrics),
                "targets": len(self.metrics.targets),
                "trim": self.metrics.trim,
            }
        )
        return payload

    def _ep_reachable(self, params: dict[str, str]) -> dict[str, Any]:
        origin = self._asn(params, "origin")
        target = self._asn(params, "target")
        state = self._state(origin)
        route_class = state.route_class(target)
        return {
            "origin": origin,
            "target": target,
            "reachable": route_class is not None,
            "route_class": None if route_class is None else route_class.name,
            "path_length": state.path_length(target),
        }

    def _ep_path_length(self, params: dict[str, str]) -> dict[str, Any]:
        origin = self._asn(params, "origin")
        target = self._asn(params, "target")
        return {
            "origin": origin,
            "target": target,
            "path_length": self._state(origin).path_length(target),
        }

    def _ep_reliance(self, params: dict[str, str]) -> dict[str, Any]:
        origin = self._asn(params, "origin")
        target = self._asn(params, "target")
        value = self._metric_lookup("reliance", origin, target)
        if value is None:
            mass = reliance_from_state(self._state(origin))
            value = mass.get(target, 0.0)
        return {
            "origin": origin,
            "target": target,
            "reliance": value,
        }

    def _ep_hegemony(self, params: dict[str, str]) -> dict[str, Any]:
        origin = self._asn(params, "origin")
        target = self._asn(params, "target")
        value = self._metric_lookup("hegemony", origin, target)
        if value is None:
            value = local_hegemony(
                self.graph, origin, target, cache=self.cache, trim=self.trim
            )
        return {
            "origin": origin,
            "target": target,
            "hegemony": value,
            "trim": self.trim,
        }

    def _ep_rib(self, params: dict[str, str]) -> dict[str, Any]:
        origin = self._asn(params, "origin")
        asn = self._asn(params, "asn")
        node = self._state(origin).route(asn)
        route = (
            None
            if node is None
            else {
                "route_class": node.route_class.name,
                "length": node.length,
                "parents": sorted(node.parents),
                "origins": sorted(node.origins),
            }
        )
        return {"origin": origin, "asn": asn, "route": route}


# ---------------------------------------------------------------------------
# the asyncio HTTP layer
# ---------------------------------------------------------------------------


class _Batcher:
    """Coalesce concurrent cold-origin requests into one prefetch sweep.

    Each request awaiting a cache-missing origin registers a future; the
    first registration arms a ``window``-second timer, and on fire every
    pending origin is warmed through one ``QueryService.warm`` call (a
    bit-parallel batched sweep) on the executor.  Requests whose origin
    is already warm skip the batcher entirely.
    """

    def __init__(
        self, service: QueryService, window: float = DEFAULT_BATCH_WINDOW
    ) -> None:
        self.service = service
        self.window = window
        self.batches = 0
        self.batched_origins = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._timer: Optional[asyncio.TimerHandle] = None

    async def warm(self, origin: int) -> None:
        if origin in self.service.cache or origin not in self.service.graph:
            return
        loop = asyncio.get_running_loop()
        future = self._pending.get(origin)
        if future is None:
            future = loop.create_future()
            self._pending[origin] = future
            if self._timer is None:
                self._timer = loop.call_later(
                    self.window, lambda: loop.create_task(self._flush())
                )
        await future

    async def _flush(self) -> None:
        self._timer = None
        pending, self._pending = self._pending, {}
        if not pending:
            return
        self.batches += 1
        self.batched_origins += len(pending)
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                None, self.service.warm, list(pending)
            )
        except Exception as exc:  # surface on every waiter
            for future in pending.values():
                if not future.done():
                    future.set_exception(exc)
            return
        for future in pending.values():
            if not future.done():
                future.set_result(None)


class _HttpServer:
    """Minimal stdlib HTTP/1.1 front end over a :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        window: float = DEFAULT_BATCH_WINDOW,
    ) -> None:
        self.service = service
        self.batcher = _Batcher(service, window=window)

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}, False
                    )
                    break
                method, target, version = parts
                keep_alive = version.upper() == "HTTP/1.1"
                content_length = 0
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    lowered = name.strip().lower()
                    if lowered == "content-length":
                        try:
                            content_length = int(value.strip() or 0)
                        except ValueError:
                            content_length = 0
                    elif lowered == "connection":
                        keep_alive = value.strip().lower() != "close"
                if content_length:
                    await reader.readexactly(content_length)
                if method.upper() != "GET":
                    await self._respond(
                        writer,
                        405,
                        {"error": f"{method} not supported; use GET"},
                        keep_alive,
                    )
                    if not keep_alive:
                        break
                    continue
                url = urlsplit(target)
                params = {
                    key: values[-1]
                    for key, values in parse_qs(url.query).items()
                }
                status, payload = await self._answer(url.path, params)
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,  # loop shutdown beat the FIN
            ):
                pass

    async def _answer(
        self, path: str, params: dict[str, str]
    ) -> tuple[int, dict]:
        raw_origin = params.get("origin")
        if raw_origin is not None:
            try:
                origin = int(raw_origin)
            except ValueError:
                pass  # the service will map this to a 400
            else:
                if not self.service.metric_covers(path, origin):
                    await self.batcher.warm(origin)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.service.answer, path, params
        )

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Error"
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8351,
    window: float = DEFAULT_BATCH_WINDOW,
    ready: Optional[threading.Event] = None,
    bound: Optional[dict] = None,
    stop: Optional[asyncio.Event] = None,
    sock: Optional[socket.socket] = None,
) -> None:
    """Serve ``service`` over HTTP until cancelled (or ``stop`` is set).

    ``port=0`` binds an ephemeral port; the actual address is published
    into ``bound`` (``{"host":…, "port":…}``) before ``ready`` is set —
    the hooks :func:`start_server_thread` uses to run the server in a
    background thread for tests, benchmarks, and the smoke check.

    ``sock`` serves on a pre-bound socket instead of binding
    ``host``/``port`` — how :class:`WorkerSupervisor` workers share one
    address via ``SO_REUSEPORT``.
    """
    http = _HttpServer(service, window=window)
    if sock is not None:
        server = await asyncio.start_server(http.handle, sock=sock)
    else:
        server = await asyncio.start_server(http.handle, host, port)
    address = server.sockets[0].getsockname()
    if bound is not None:
        bound["host"], bound["port"] = address[0], address[1]
        bound["batcher"] = http.batcher
    if ready is not None:
        ready.set()
    try:
        if stop is None:
            await server.serve_forever()
        else:
            await stop.wait()
    finally:
        server.close()
        await server.wait_closed()


class ServerHandle:
    """A running background server: address + clean shutdown."""

    def __init__(
        self,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        stop: asyncio.Event,
        host: str,
        port: int,
        batcher: _Batcher,
    ) -> None:
        self._thread = thread
        self._loop = loop
        self._stop = stop
        self.host = host
        self.port = port
        self.batcher = batcher

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_server_thread(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    window: float = DEFAULT_BATCH_WINDOW,
) -> ServerHandle:
    """Run :func:`serve` in a daemon thread; returns once it is bound."""
    ready = threading.Event()
    bound: dict = {}

    def _run() -> None:
        async def _main() -> None:
            stop = asyncio.Event()
            bound["loop"] = asyncio.get_running_loop()
            bound["stop"] = stop
            await serve(
                service,
                host=host,
                port=port,
                window=window,
                ready=ready,
                bound=bound,
                stop=stop,
            )

        asyncio.run(_main())

    thread = threading.Thread(target=_run, daemon=True, name="repro-serve")
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("repro serve failed to bind within 30s")
    return ServerHandle(
        thread,
        bound["loop"],
        bound["stop"],
        bound["host"],
        bound["port"],
        bound["batcher"],
    )


# ---------------------------------------------------------------------------
# multi-process serving: SO_REUSEPORT workers under a supervisor
# ---------------------------------------------------------------------------


def _reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound (not listening) ``SO_REUSEPORT`` TCP socket.

    Every worker binds its own socket to the same address; the kernel
    hashes each incoming connection's 4-tuple to one of them, which is
    the entire load balancer — no shared accept lock, no parent proxy.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


@dataclasses.dataclass
class ServiceSpec:
    """A picklable recipe for building a :class:`QueryService`.

    Worker processes are spawned (not forked), so they cannot inherit a
    live service; each worker rebuilds its own from this spec — loading
    ``graph_file`` when no in-memory ``graph`` is given, and mmapping
    the corpus at ``shards`` under its own lease.  The mappings are
    content-addressed and read-only, so N workers share one page-cache
    copy of the data with zero coordination.
    """

    graph: Optional[ASGraph] = None
    graph_file: Optional[str] = None
    shards: Optional[str] = None
    maxsize: Optional[int] = DEFAULT_MAXSIZE
    engine: Optional[str] = None
    trim: float = TRIM

    def build(self) -> QueryService:
        graph = self.graph
        if graph is None:
            if self.graph_file is None:
                raise ValueError("ServiceSpec needs graph or graph_file")
            from .topology import load_graph

            graph = load_graph(self.graph_file)
        store = None
        if self.shards is not None:
            from .bgpsim.shards import ShardStore

            store = ShardStore.open(self.shards, graph=graph, lease=True)
        return QueryService(
            graph,
            shards=store,
            maxsize=self.maxsize,
            engine=self.engine,
            trim=self.trim,
        )


def _worker_main(
    spec: ServiceSpec,
    host: str,
    port: int,
    window: float,
    ready,
) -> None:
    """One worker process: build the service, serve on a reuseport
    socket until SIGTERM/SIGINT, then release the corpus lease."""
    service = spec.build()
    sock = _reuseport_socket(host, port)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await serve(
            service, window=window, ready=ready, stop=stop, sock=sock
        )

    try:
        asyncio.run(_main())
    finally:
        store = service.cache.shards
        if store is not None:
            store.close()


class WorkerSupervisor:
    """N serving processes on one address, restarted when they die.

    The parent holds a bound-but-never-listening ``SO_REUSEPORT`` guard
    socket: it reserves the port (letting ``port=0`` pick an ephemeral
    one that every worker then binds) and keeps the address claimed
    across worker restarts, but never accepts — the kernel only
    dispatches connections to *listening* sockets.  A monitor thread
    waits on process sentinels and respawns dead workers up to
    ``max_restarts`` (a crash-loop fuse, not a normal-operation limit).
    """

    def __init__(
        self,
        spec: ServiceSpec,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        window: float = DEFAULT_BATCH_WINDOW,
        max_restarts: int = 16,
        start_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.host = host
        self.window = window
        self.max_restarts = max_restarts
        self.restarts = 0
        self._start_timeout = start_timeout
        self._guard = _reuseport_socket(host, port)
        self.port = self._guard.getsockname()[1]
        # spawn, not fork: the parent may hold live threads and event
        # loops, and everything a worker needs travels via the spec
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list = []
        self._closing = False
        self._lock = threading.Lock()
        try:
            events = [self._spawn() for _ in range(workers)]
            for _, ready in events:
                if not ready.wait(timeout=self._start_timeout):
                    raise RuntimeError(
                        f"serve worker failed to bind within "
                        f"{self._start_timeout:.0f}s"
                    )
        except BaseException:
            self.close()
            raise
        self._monitor = threading.Thread(
            target=self._watch, daemon=True, name="repro-serve-supervisor"
        )
        self._monitor.start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def pids(self) -> list[int]:
        with self._lock:
            return [p.pid for p, _ in self._procs if p.is_alive()]

    def _spawn(self):
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.spec, self.host, self.port, self.window, ready),
            daemon=True,
            name="repro-serve-worker",
        )
        proc.start()
        entry = (proc, ready)
        self._procs.append(entry)
        return entry

    def _watch(self) -> None:
        while True:
            with self._lock:
                if self._closing:
                    return
                sentinels = {p.sentinel: p for p, _ in self._procs}
            if not sentinels:
                return
            dead = multiprocessing.connection.wait(
                list(sentinels), timeout=0.25
            )
            for sentinel in dead:
                proc = sentinels[sentinel]
                proc.join()  # reap
                with self._lock:
                    if self._closing:
                        return
                    self._procs = [
                        (p, r) for p, r in self._procs if p is not proc
                    ]
                    if self.restarts >= self.max_restarts:
                        continue
                    self.restarts += 1
                    _, ready = self._spawn()
                ready.wait(timeout=self._start_timeout)

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
            procs = [p for p, _ in self._procs]
            self._procs = []
        for proc in procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM → graceful asyncio shutdown
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        monitor = getattr(self, "_monitor", None)
        if monitor is not None and monitor.is_alive():
            monitor.join(timeout=5)
        self._guard.close()

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the differential smoke check
# ---------------------------------------------------------------------------


def smoke_expected(service: QueryService) -> dict[str, dict]:
    """Expected answers per smoke query, from a **fresh** propagation.

    Every value is recomputed outside the service's tiers — a fresh
    ``propagate`` and a fresh cache — so comparing them against served
    answers is a true differential check.  When the service carries a
    metric-shard tier, the hegemony query targets a shard target (the
    highest-degree ASes), exercising the zero-copy read path.
    """
    from .bgpsim.engine import propagate
    from .bgpsim.routes import Seed

    nodes = sorted(service.graph.nodes())
    origin, target = nodes[0], nodes[-1]
    heg_target = target
    if service.metrics is not None:
        covered = [t for t in service.metrics.targets if t != origin]
        if covered:
            heg_target = covered[-1]
    live = propagate(service.graph, Seed(asn=origin))
    live_mass = reliance_from_state(live)
    fresh_cache = RoutingStateCache(service.graph)
    return {
        "/health": {"status": "ok", "nodes": len(nodes)},
        f"/reachable?origin={origin}&target={target}": {
            "reachable": live.has_route(target),
            "route_class": None
            if live.route_class(target) is None
            else live.route_class(target).name,
            "path_length": live.path_length(target),
        },
        f"/path_length?origin={origin}&target={target}": {
            "path_length": live.path_length(target)
        },
        f"/reliance?origin={origin}&target={target}": {
            "reliance": live_mass.get(target, 0.0)
        },
        f"/hegemony?origin={origin}&target={heg_target}": {
            "hegemony": local_hegemony(
                service.graph,
                origin,
                heg_target,
                cache=fresh_cache,
                trim=service.trim,
            )
        },
        f"/rib?origin={origin}&asn={target}": {
            "route": None
            if live.route(target) is None
            else {
                "route_class": live.route(target).route_class.name,
                "length": live.route(target).length,
                "parents": sorted(live.route(target).parents),
                "origins": sorted(live.route(target).origins),
            }
        },
    }


def run_smoke_queries(
    base_url: str,
    expected: dict[str, dict],
    require_metric_tier: bool = False,
) -> list[str]:
    """Drive the smoke queries over HTTP; returns the mismatch list.

    All queries ride **one keep-alive connection** — under multi-worker
    serving the kernel pins a connection to a single worker, so the
    closing ``/stats`` read reports the same process that answered the
    queries, making the ``require_metric_tier`` attribution assertion
    (both metric queries served off the shard tier) valid per-worker.
    """
    import http.client

    url = urlsplit(base_url)
    failures: list[str] = []
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
    try:
        for query, want in expected.items():
            conn.request("GET", query)
            got = json.loads(conn.getresponse().read())
            for key, value in want.items():
                if got.get(key) != value:
                    failures.append(
                        f"{query}: {key} = {got.get(key)!r}, "
                        f"live propagation says {value!r}"
                    )
        if require_metric_tier:
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
            metric_hits = stats.get("tiers", {}).get("metric", 0)
            if metric_hits < 2:
                failures.append(
                    f"/stats: tiers['metric'] = {metric_hits}, expected the "
                    f"reliance + hegemony queries to be served from metric "
                    f"shards"
                )
    finally:
        conn.close()
    return failures


def smoke_check(service: QueryService, host: str = "127.0.0.1") -> list[str]:
    """One HTTP query per endpoint, diffed against live propagation.

    Starts the server on an ephemeral port, issues a real request per
    endpoint over one keep-alive connection, and recomputes every
    expected answer from a **fresh** ``propagate`` (bypassing the
    service's tiers).  When the service has a metric-shard tier, the
    ``/reliance`` + ``/hegemony`` answers must additionally be
    *attributed* to that tier in ``/stats``.  Returns the list of
    mismatches — empty means the serve stack is answer-identical to the
    live engine.  This is the CI ``tests-serve`` leg.
    """
    expected = smoke_expected(service)
    with start_server_thread(service, host=host) as handle:
        return run_smoke_queries(
            handle.base_url,
            expected,
            require_metric_tier=service.metrics is not None,
        )
