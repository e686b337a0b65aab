"""Percentiles, the tail rule, and the load ladder's pass/fail rules.

Pure functions over lists of numbers, so the harness self-tests in
``perfbench/tests`` can check them without a server.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

#: a reported tail percentile needs at least this many samples above it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile: the smallest sample with at least
    ``q`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``q``-quantile."""
    return count - max(1, math.ceil(q * count - 1e-9))


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting the ``q``-quantile:
    at least :data:`MIN_BEYOND` samples must lie beyond it."""
    return count > 0 and beyond(count, q) >= MIN_BEYOND


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# ---------------------------------------------------------------------------
# the max_qps ladder
# ---------------------------------------------------------------------------

#: a rung passes when its p99 latency (from due time) stays under this
P99_LIMIT_S = 0.050

#: a rung's backlog grows when its last quarter waited this much longer
#: to be sent than its first quarter (median send delay)
BACKLOG_SLACK_S = 0.005


#: the rate ladder: from 100 req/s up to 20,000 req/s in 5% steps
LADDER_START, LADDER_RATIO, LADDER_TOP = 100.0, 1.05, 20000.0


def ladder() -> tuple[float, ...]:
    """The fixed rate ladder in requests per second."""
    rates = []
    rate = LADDER_START
    while rate <= LADDER_TOP:
        rates.append(round(rate, 3))
        rate *= LADDER_RATIO
    return tuple(rates)


def backlog_growing(send_delays: Sequence[float]) -> bool:
    """Whether the queue of due-but-unsent requests grew over a rung.

    ``send_delays`` are, in due order, how long each request waited
    between its due time and its send.  A steady queue keeps that wait
    flat; a growing one makes it climb, so the rung's last quarter waits
    longer than its first quarter by more than :data:`BACKLOG_SLACK_S`.
    """
    n = len(send_delays)
    if n < 8:
        return False
    quarter = n // 4
    first = median(send_delays[:quarter])
    last = median(send_delays[-quarter:])
    return last - first > BACKLOG_SLACK_S


def rung_passes(
    latencies: Sequence[float], send_delays: Sequence[float], failed: int
) -> bool:
    """A rung passes when no request failed, it has enough samples for a
    p99, the p99 latency is under :data:`P99_LIMIT_S` and the backlog is
    steady."""
    if failed or not supports(len(latencies), 0.99):
        return False
    if percentile(latencies, 0.99) > P99_LIMIT_S:
        return False
    return not backlog_growing(send_delays)


def search_ladder(
    rates: Sequence[float],
    passes: Callable[[float], bool],
    start: int = 0,
) -> Optional[int]:
    """Index of the highest rung of ``rates`` that passes, probing few.

    Starts at rung ``start`` and steps away from it with doubling
    strides (up while rungs pass, down while they fail), then bisects
    between the highest pass and the lowest failure seen.  Assumes a
    rung above a failing one also fails.  Returns ``None`` when even the
    first rung fails.
    """
    if not rates:
        return None
    top = len(rates) - 1
    good: Optional[int] = None
    bad: Optional[int] = None
    probe = min(max(start, 0), top)
    step = 1
    while True:
        if passes(rates[probe]):
            good = probe
            if bad is not None or probe == top:
                break
            probe = min(probe + step, top)
        else:
            bad = probe
            if good is not None or probe == 0:
                break
            probe = max(probe - step, 0)
        step *= 2
    if good is None:
        return None
    if bad is None:
        return good
    while bad - good > 1:
        mid = (good + bad) // 2
        if passes(rates[mid]):
            good = mid
        else:
            bad = mid
    return good
