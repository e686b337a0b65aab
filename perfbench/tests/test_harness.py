"""Self-tests of the benchmark harness (no server, no program run).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import time

import pytest

import loadgen
import measure
import spans
from workloads import generator_behind


# ---------------------------------------------------------------------------
# percentile math and the ">= 10 samples beyond" rule
# ---------------------------------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1 .. 100
    assert measure.percentile(samples, 0.5) == 50
    assert measure.percentile(samples, 0.99) == 99
    assert measure.percentile(samples, 1.0) == 100
    assert measure.percentile([7.0], 0.99) == 7.0
    assert measure.percentile([3, 1, 2], 0.5) == 2  # order-free
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0.0)


def test_median_even_and_odd():
    assert measure.median([5, 1, 3]) == 3
    assert measure.median([4, 1, 3, 2]) == 2.5


def test_samples_beyond_a_percentile():
    assert measure.beyond(1000, 0.99) == 10
    assert measure.beyond(999, 0.99) == 9
    assert measure.supports(1000, 0.99)
    assert not measure.supports(999, 0.99)
    assert not measure.supports(0, 0.5)


@pytest.mark.parametrize(
    "count, quantile, ok",
    [(1000, 0.99, True), (999, 0.99, False), (100, 0.9, True),
     (99, 0.9, False), (20, 0.5, True), (19, 0.5, False),
     (10000, 0.999, True), (9999, 0.999, False)],
)
def test_a_percentile_needs_ten_samples_beyond(count, quantile, ok):
    assert measure.supports(count, quantile) is ok


# ---------------------------------------------------------------------------
# the max_qps ladder and the backlog rule
# ---------------------------------------------------------------------------


def test_ladder_is_fixed_and_geometric():
    rates = measure.ladder()
    assert rates == measure.ladder()
    assert rates[0] == 100.0
    assert all(b / a == pytest.approx(1.05, rel=1e-4)
               for a, b in zip(rates, rates[1:]))


def test_flat_send_delays_are_no_backlog():
    assert not measure.backlog_growing([0.0004] * 400)
    jitter = [0.0002 + 0.003 * (i % 7 == 0) for i in range(400)]
    assert not measure.backlog_growing(jitter)


def test_climbing_send_delays_are_a_backlog():
    # 5% over capacity for 1,200 requests: the queue wait climbs linearly
    climbing = [i * 0.05 / 1000 for i in range(1200)]
    assert measure.backlog_growing(climbing)


def test_rung_rules():
    fast = [0.001] * 1200
    flat = [0.0001] * 1200
    assert measure.rung_passes(fast, flat, failed=0)
    assert not measure.rung_passes(fast, flat, failed=1)
    assert not measure.rung_passes(fast[:999], flat[:999], failed=0)
    slow_tail = fast[:-20] + [0.2] * 20
    assert not measure.rung_passes(slow_tail, flat, failed=0)
    climbing = [i * 0.05 / 1000 for i in range(1200)]
    assert not measure.rung_passes(fast, climbing, failed=0)


@pytest.mark.parametrize("start", [0, 3, 17, 40, 59])
@pytest.mark.parametrize("knee", [0, 1, 20, 45, 59])
def test_ladder_search_finds_the_knee(start, knee):
    rates = tuple(float(r) for r in range(60))
    probed = []

    def passes(rate):
        probed.append(rate)
        return rate <= knee

    assert measure.search_ladder(rates, passes, start) == knee
    assert len(probed) <= 14  # far fewer than walking 60 rungs


def test_ladder_search_when_nothing_passes():
    assert measure.search_ladder((1.0, 2.0, 3.0), lambda r: False, 1) is None
    assert measure.search_ladder((), lambda r: True) is None


def test_generator_behind_rule():
    def leg(lateness_p99, wall=4.0):
        return loadgen.LegSummary(
            rate=250.0, count=1000, failed=0, p50_s=0.0005, p99_s=0.004,
            achieved_rate=250.0, wall_s=wall,
            lateness_p99_s=lateness_p99, send_delays=[], latencies=[],
            on_time=[])

    # a host stall late-sends a few requests: still the server's leg
    assert not generator_behind(leg(0.010), generator_cpu=0.3)
    # the generator kept a core busy for the whole leg
    assert generator_behind(leg(0.0003), generator_cpu=3.6)


# ---------------------------------------------------------------------------
# span self-time arithmetic
# ---------------------------------------------------------------------------

#: A(0..10) holds B(1..4) and C(5..9); C holds D(6..8), a nested A-named
#: span E(8.5..8.75) sits under C too, and F(11..12) is a second root.
SYNTHETIC = [
    (1, 0, "a", "experiments", 0.0, 10.0),
    (2, 1, "b", "bgpsim", 1.0, 4.0),
    (3, 1, "c", "kernel", 5.0, 9.0),
    (4, 3, "d", "bgpsim", 6.0, 8.0),
    (5, 3, "a", "experiments", 8.5, 8.75),
    (6, 0, "f", "shards", 11.0, 12.0),
]


def test_self_time_subtracts_direct_children():
    own = spans.self_times(SYNTHETIC)
    assert own["experiments"] == pytest.approx((10 - 3 - 4) + 0.25)
    assert own["bgpsim"] == pytest.approx(3 + 2)
    assert own["kernel"] == pytest.approx(4 - 2 - 0.25)
    assert own["shards"] == pytest.approx(1)
    # self times partition the root spans' time
    assert sum(own.values()) == pytest.approx(spans.top_level_time(SYNTHETIC))


def test_name_totals_do_not_double_count_nesting():
    totals = spans.name_totals(SYNTHETIC)
    assert totals["a"] == (2, pytest.approx(10.0))  # the inner a is inside
    assert totals["d"] == (1, pytest.approx(2.0))
    assert totals["f"] == (1, pytest.approx(1.0))


def test_recorder_links_nested_calls_to_their_parents():
    recorder = spans.Recorder()

    def leaf():
        return "leaf"

    leaf = recorder.wrap(leaf, "leaf", "kernel")

    def middle():
        return leaf() + leaf()

    middle = recorder.wrap(middle, "middle", "bgpsim", "calls",
                           lambda args, kwargs, result: 1.0)
    assert middle() == "leafleaf"
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[2], []).append(span)
    (outer,) = by_name["middle"]
    assert outer[1] == 0
    assert [s[1] for s in by_name["leaf"]] == [outer[0], outer[0]]
    assert recorder.counters["calls"] == 1.0
    assert spans.self_times(recorder.spans)["bgpsim"] >= 0.0


# ---------------------------------------------------------------------------
# due-time accounting under an injected generator stall
# ---------------------------------------------------------------------------


def test_stall_is_charged_to_every_request_due_during_it():
    stall_s, rate, stalled = 0.030, 1000.0, 10

    def connect():
        return None

    def send(conn, request):
        return 200, b"{}"

    def stall(i):
        if i == stalled:
            time.sleep(stall_s)

    outcomes = loadgen.open_loop(connect, send, list(range(60)), rate=rate,
                                 connections=1, stall=stall)
    hit = outcomes[stalled]
    assert hit.lateness >= stall_s * 0.9  # the generator's own fault
    assert hit.latency >= stall_s * 0.9
    # the next request was due 1 ms later but could only go after the
    # stall: its latency counts from its due time, although the server
    # answered it at once and the generator sent it as soon as it could
    after = outcomes[stalled + 1]
    assert after.latency >= stall_s * 0.9 - 1 / rate
    assert after.done - after.sent < 0.005
    assert after.lateness < 0.005
    # requests due during the stall all queued behind it
    waited = [o for o in outcomes[stalled + 1:stalled + 20]]
    assert all(o.send_delay > 0.005 for o in waited)
    # and the summary's tail sees the stall
    summary = loadgen.summarize(outcomes, rate)
    assert summary.p99_s >= stall_s * 0.8
    assert summary.failed == 0
    # the stalled send timed the generator: it is not among the requests
    # sent on time, while the ones queued behind it still are
    assert hit.latency not in summary.on_time
    assert after.latency in summary.on_time


def test_zipf_mix_is_seeded_and_balanced():
    import random

    nodes = list(range(1, 501))
    targets = nodes[:32]
    one = loadgen.zipf_mix(nodes, targets, 5000, random.Random(7))
    two = loadgen.zipf_mix(nodes, targets, 5000, random.Random(7))
    assert one == two
    counts = {e: sum(p.startswith(e + "?") for p in one)
              for e in loadgen.ENDPOINTS}
    assert set(counts.values()) == {1000}
    hegemony = [p for p in one if p.startswith("/hegemony?")]
    outside = sum(int(p.rsplit("=", 1)[1]) not in set(targets)
                  for p in hegemony)
    assert 0.06 < outside / len(hegemony) < 0.14
    origins = [int(p.split("origin=")[1].split("&")[0]) for p in one]
    top = max(set(origins), key=origins.count)
    assert origins.count(top) / len(origins) > 0.08  # Zipf head
