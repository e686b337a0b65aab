"""Open-loop HTTP load from one process over a few keep-alive connections.

Requests follow a fixed schedule (request ``i`` is due ``i / rate``
seconds after the start) whatever the server does.  Each connection
thread takes the next request in due order as soon as it is free, waits
for its due time, sends it and reads the reply, so at most one request
per connection is in flight and the rest queue in the generator.  Every
request is timed from the moment it was due, so a stall delays, and
shows up in, every request due during it.

The generator's own lateness is kept apart from queueing: a request is
*ready* once it is due and its connection is free, and the time from
ready to send is the generator's fault (thread wake-up, the interpreter
lock, its own CPU).  A run whose generator ran late is not a
measurement of the server.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from measure import median, percentile

#: the five query endpoints, in equal shares
ENDPOINTS = ("/reachable", "/path_length", "/rib", "/reliance", "/hegemony")

#: share of /hegemony targets drawn from outside the precomputed set
OUTSIDE_TARGET_SHARE = 0.10

#: a request the generator sent more than this long after it was ready
#: timed the generator (a host stall caught it), not the server
ON_TIME_S = 0.001


@dataclass
class Outcome:
    """One request's timeline, in seconds on the ``perf_counter`` clock."""

    due: float
    ready: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: Optional[bytes] = None

    @property
    def latency(self) -> float:
        """Due to reply: what a client with this schedule waited."""
        return self.done - self.due

    @property
    def send_delay(self) -> float:
        """Due to send: queueing plus generator lateness."""
        return self.sent - self.due

    @property
    def lateness(self) -> float:
        """Ready to send: the generator's own delay."""
        return self.sent - self.ready


def zipf_mix(
    nodes: Sequence[int],
    targets: Sequence[int],
    count: int,
    rng: random.Random,
) -> list[str]:
    """``count`` query paths: origins Zipf(s=1) over a seeded permutation
    of ``nodes``, endpoints in equal shares, and one /hegemony target in
    ten drawn from outside ``targets`` (the precomputed set)."""
    ranked = list(nodes)
    rng.shuffle(ranked)
    weights = (1.0 / rank for rank in range(1, len(ranked) + 1))
    cumulative = list(itertools.accumulate(weights))
    origins = rng.choices(ranked, cum_weights=cumulative, k=count)
    endpoints = [ENDPOINTS[i % len(ENDPOINTS)] for i in range(count)]
    rng.shuffle(endpoints)
    inside = list(targets)
    target_set = set(inside)
    outside = [n for n in nodes if n not in target_set]
    paths = []
    for origin, endpoint in zip(origins, endpoints):
        if endpoint == "/hegemony":
            pool = outside if rng.random() < OUTSIDE_TARGET_SHARE else inside
        else:
            pool = nodes
        target = rng.choice(pool)
        while target == origin:
            target = rng.choice(pool)
        key = "asn" if endpoint == "/rib" else "target"
        paths.append(f"{endpoint}?origin={origin}&{key}={target}")
    return paths


class HttpConnection:
    """A keep-alive HTTP/1.1 GET client on a raw socket (no parsing
    beyond the status line and ``Content-Length``)."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self._buffer = b""
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def get(self, request: bytes) -> tuple[int, bytes]:
        """Send one pre-encoded request; returns (status, body)."""
        self._sock.sendall(request)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body

    def reset(self) -> None:
        """Drop the connection (after a failure) and open a new one."""
        self.close()
        self._buffer = b""
        self._sock = self._connect()

    def close(self) -> None:
        self._sock.close()


def encode(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def http_sender(host: str, port: int):
    """(connect, send) callables for :func:`open_loop` over HTTP; a reply
    that takes over 10 s is a failed (timed-out) request."""

    def connect() -> HttpConnection:
        return HttpConnection(host, port, timeout=10.0)

    def send(conn: HttpConnection, request: bytes) -> tuple[int, bytes]:
        try:
            return conn.get(request)
        except (OSError, ValueError, IndexError):
            try:
                conn.reset()
            except OSError:
                pass
            return 0, b""

    return connect, send


def open_loop(
    connect: Callable[[], Any],
    send: Callable[[Any, Any], tuple[int, bytes]],
    requests: Sequence[Any],
    rate: float,
    connections: int = 2,
    keep: frozenset[int] = frozenset(),
    stall: Optional[Callable[[int], None]] = None,
) -> list[Outcome]:
    """Send ``requests`` on the open-loop schedule ``i / rate``.

    ``keep`` lists the request indices whose reply bodies are kept (for
    the answer check).  ``stall(i)``, when given, runs in the generator
    just before request ``i`` is sent — the hook the self-tests use to
    inject a generator stall.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    outcomes = [Outcome(due=0.0) for _ in requests]
    start = time.perf_counter() + 0.02  # time for the threads to connect
    for i, outcome in enumerate(outcomes):
        outcome.due = start + i / rate
    order = itertools.count()
    clock = time.perf_counter
    errors: list[OSError] = []

    def worker() -> None:
        try:
            conn = connect()
        except OSError as exc:  # surfaced after join
            errors.append(exc)
            return
        free = clock()
        try:
            while True:
                i = next(order)
                if i >= len(outcomes):
                    return
                outcome = outcomes[i]
                wait = outcome.due - clock()
                if wait > 0:
                    time.sleep(wait)
                outcome.ready = max(outcome.due, free)
                if stall is not None:
                    stall(i)
                outcome.sent = clock()
                status, body = send(conn, requests[i])
                outcome.done = free = clock()
                outcome.status = status
                if i in keep:
                    outcome.body = body
        finally:
            close = getattr(conn, "close", None)
            if close is not None:
                close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{k}", daemon=True)
        for k in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes


def closed_loop(
    connect: Callable[[], Any],
    send: Callable[[Any, Any], tuple[int, bytes]],
    requests: Sequence[Any],
    connections: int = 2,
) -> tuple[float, int]:
    """Send ``requests`` back to back over ``connections``; returns
    (elapsed seconds, failed count)."""
    outcomes = open_loop(connect, send, requests, rate=1e12,
                         connections=connections)
    elapsed = max(o.done for o in outcomes) - min(o.sent for o in outcomes)
    return elapsed, sum(1 for o in outcomes if o.status != 200)


@dataclass
class LegSummary:
    """What one open-loop leg measured."""

    rate: float
    count: int
    failed: int
    p50_s: float
    p99_s: float
    achieved_rate: float
    wall_s: float
    lateness_p99_s: float
    send_delays: list[float]
    latencies: list[float]
    #: latencies of the requests sent within ON_TIME_S of being ready
    on_time: list[float]


def summarize(outcomes: Sequence[Outcome], rate: float) -> LegSummary:
    """Latency and generator-health figures of one leg."""
    latencies = [o.latency for o in outcomes]
    lateness = [o.lateness for o in outcomes]
    answered = [o for o in outcomes if o.status == 200]
    span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    return LegSummary(
        rate=rate,
        count=len(outcomes),
        failed=len(outcomes) - len(answered),
        p50_s=median(latencies),
        p99_s=percentile(latencies, 0.99),
        achieved_rate=len(answered) / span if span > 0 else 0.0,
        wall_s=span,
        lateness_p99_s=percentile(lateness, 0.99),
        send_delays=[o.send_delay for o in outcomes],
        latencies=latencies,
        on_time=[o.latency for o in outcomes if o.lateness <= ON_TIME_S],
    )
