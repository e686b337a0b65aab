"""Benchmark — the query-serving tiers: cold vs warm LRU vs mmap shards.

A fixed query mix (path-length lookups cycling over sampled origins
toward a high-degree target) is answered three ways:

* ``cold`` — one full ``propagate`` per query, the pre-PR-8 cost of an
  uncached question;
* ``warm`` — ``RoutingStateCache.state_for`` over a prewarmed LRU;
* ``precomputed`` — ``ShardStore.state_for`` zero-copy off the mmap
  shards ``precompute_shards`` wrote (the ``repro serve`` disk tier).

Correctness is asserted first and bit-identically: every tier must give
byte-equal answers (and, per origin, identical route-class/length
arrays) to a fresh live propagation, and the reliance/hegemony floats
must match exactly.  The record then asserts the precomputed tier is
≥10× faster per query than cold propagation, and a load-generator leg
drives the real HTTP server over localhost to record end-to-end
queries/sec and tail latency.

Two further legs cover PR 10:

* ``metric`` — ``/reliance`` and ``/hegemony`` answered off precomputed
  metric shards (``repro precompute --metrics``) vs the same service
  recomputing the live numpy kernels per query.  Answers must be
  bit-identical (exact ``float.hex()``) and the metric tier must be ≥10×
  faster than the kernels.
* ``multi-worker`` — a threaded client load against ``WorkerSupervisor``
  with 1 and 2 ``SO_REUSEPORT`` workers; the parallel win is asserted
  only on multi-CPU hosts.

Run via ``make bench-serve``; the record lands in
``benchmarks/bench_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import threading
import time
from pathlib import Path

from benchmarks.conftest import write_bench_json
from repro.bgpsim import (
    RoutingStateCache,
    Seed,
    precompute_shards,
    propagate,
)
from repro.bgpsim.shards import (
    ShardStore,
    default_metric_targets,
    precompute_metric_shards,
)
from repro.core.hegemony import local_hegemony
from repro.core.reliance import reliance_from_state
from repro.serve import (
    QueryService,
    ServiceSpec,
    WorkerSupervisor,
    start_server_thread,
)

BENCH_JSON = Path(__file__).resolve().parent / "bench_serve.json"
N_ORIGINS = 48
QUERIES = 192
HTTP_QUERIES = 300
WORKER_CLIENTS = 4
WORKER_QUERIES_PER_CLIENT = 60


def _workload(graph):
    nodes = sorted(graph.nodes())
    step = max(1, len(nodes) // N_ORIGINS)
    origins = nodes[::step][:N_ORIGINS]
    target = max(
        nodes, key=lambda a: len(graph.customers(a)) + len(graph.peers(a))
    )
    return origins, target


def _percentile(sorted_ns, q):
    index = min(len(sorted_ns) - 1, round(q * (len(sorted_ns) - 1)))
    return sorted_ns[index]


def _tier_record(timings_ns):
    ordered = sorted(timings_ns)
    total_s = sum(timings_ns) / 1e9
    return {
        "queries": len(timings_ns),
        "qps": len(timings_ns) / total_s,
        "mean_us": statistics.fmean(timings_ns) / 1e3,
        "p50_us": _percentile(ordered, 0.50) / 1e3,
        "p99_us": _percentile(ordered, 0.99) / 1e3,
    }


def _drive(state_of, origins, target, queries=QUERIES):
    """Per-query ns timings + answers for one tier's state source."""
    timings = []
    answers = {}
    for k in range(queries):
        origin = origins[k % len(origins)]
        started = time.perf_counter_ns()
        state = state_of(origin)
        answer = state.path_length(target)
        timings.append(time.perf_counter_ns() - started)
        answers[origin] = answer
    return timings, answers


def _drive_endpoint(service, path, origins, target, queries=QUERIES):
    """Per-query ns timings + answers through ``QueryService.answer``."""
    key = path.lstrip("/")
    timings = []
    answers = {}
    for k in range(queries):
        origin = origins[k % len(origins)]
        started = time.perf_counter_ns()
        status, payload = service.answer(
            path, {"origin": str(origin), "target": str(target)}
        )
        timings.append(time.perf_counter_ns() - started)
        assert status == 200
        answers[origin] = payload[key]
    return timings, answers


def _worker_load(graph, corpus, origins, target, expected, workers):
    """Threaded keep-alive clients against a worker fleet; returns
    (qps, one worker's /stats payload)."""
    spec = ServiceSpec(graph=graph, shards=str(corpus))
    errors: list[Exception] = []

    def client(idx: int, port: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            for k in range(WORKER_QUERIES_PER_CLIENT):
                origin = origins[(idx + k) % len(origins)]
                conn.request(
                    "GET", f"/reliance?origin={origin}&target={target}"
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert (
                    float(payload["reliance"]).hex()
                    == float(expected[origin]).hex()
                ), f"worker answer diverged for AS{origin}"
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            conn.close()

    with WorkerSupervisor(spec, workers=workers) as sup:
        threads = [
            threading.Thread(target=client, args=(i, sup.port))
            for i in range(WORKER_CLIENTS)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        conn = http.client.HTTPConnection("127.0.0.1", sup.port, timeout=120)
        try:
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
        finally:
            conn.close()
    if errors:
        raise errors[0]
    return (WORKER_CLIENTS * WORKER_QUERIES_PER_CLIENT) / wall, stats


def test_bench_serving_tiers(benchmark, ctx2020, tmp_path):
    graph = ctx2020.graph
    graph.compile()
    origins, target = _workload(graph)

    # ground truth, computed fresh and kept out of every tier's path
    live = {o: propagate(graph, Seed(asn=o)) for o in origins}
    expected = {o: live[o].path_length(target) for o in origins}

    # -- precompute the shard corpus (the `repro precompute` cost) -------
    precompute_started = time.perf_counter()
    corpus = precompute_shards(graph, tmp_path)
    precompute_s = time.perf_counter() - precompute_started
    # metric rows too (`repro precompute --metrics`), with the workload
    # target guaranteed a fused hegemony column
    metric_targets = tuple(
        sorted(set(default_metric_targets(graph)) | {target})
    )
    metric_started = time.perf_counter()
    precompute_metric_shards(graph, tmp_path, targets=metric_targets)
    metric_precompute_s = time.perf_counter() - metric_started
    store = ShardStore.open(corpus, graph=graph)
    assert store.metrics is not None

    # -- cold: one propagation per query ---------------------------------
    cold_ns, cold_answers = _drive(
        lambda o: propagate(graph, Seed(asn=o)), origins, target
    )
    # -- warm: prewarmed LRU ---------------------------------------------
    cache = RoutingStateCache(graph)
    cache.prefetch(origins)
    warm_ns, warm_answers = _drive(cache.state_for, origins, target)
    # -- precomputed: zero-copy mmap reads -------------------------------
    disk_ns, disk_answers = _drive(store.state_for, origins, target)
    benchmark.pedantic(
        lambda: _drive(store.state_for, origins, target),
        rounds=1,
        iterations=1,
    )

    # -- every served answer is bit-identical to live propagation --------
    assert cold_answers == expected
    assert warm_answers == expected
    assert disk_answers == expected
    for origin in origins:
        disk_state = store.state_for(origin)
        assert list(disk_state._route_class) == list(
            live[origin]._route_class
        ), f"route classes diverged for AS{origin}"
        assert list(disk_state._length) == list(live[origin]._length), (
            f"path lengths diverged for AS{origin}"
        )
    metric_origins = origins[:: max(1, len(origins) // 6)]
    for origin in metric_origins:
        want_rely = reliance_from_state(live[origin]).get(target, 0.0)
        got_rely = reliance_from_state(store.state_for(origin)).get(
            target, 0.0
        )
        assert got_rely == want_rely, f"reliance floats differ for AS{origin}"
        want_heg = local_hegemony(
            graph, origin, target, cache=RoutingStateCache(graph)
        )
        got_heg = local_hegemony(
            graph, origin, target, cache=RoutingStateCache(graph, shards=store)
        )
        assert got_heg == want_heg, f"hegemony floats differ for AS{origin}"

    # -- HTTP load generator over the real server ------------------------
    service = QueryService(graph, shards=store)
    http_ns = []
    with start_server_thread(service) as handle:
        conn = http.client.HTTPConnection(handle.host, handle.port)
        try:
            for k in range(HTTP_QUERIES):
                origin = origins[k % len(origins)]
                started = time.perf_counter_ns()
                conn.request(
                    "GET", f"/path_length?origin={origin}&target={target}"
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                http_ns.append(time.perf_counter_ns() - started)
                assert response.status == 200
                assert payload["path_length"] == expected[origin], (
                    f"served answer diverged from live propagation "
                    f"for AS{origin}"
                )
        finally:
            conn.close()

    # -- metric tier: /reliance & /hegemony off precomputed rows ---------
    m_origins = [o for o in origins if o != target]
    metric_service = QueryService(graph, shards=store)
    assert metric_service.metrics is not None
    baseline = QueryService(graph, shards=store, metrics=None)
    baseline.cache.prefetch(m_origins)  # time the kernel, not
    # the propagation: the baseline reads warm states and recomputes the
    # reliance/hegemony kernels on every request
    rel_metric_ns, rel_metric = _drive_endpoint(
        metric_service, "/reliance", m_origins, target
    )
    heg_metric_ns, heg_metric = _drive_endpoint(
        metric_service, "/hegemony", m_origins, target
    )
    metric_stats = metric_service.answer("/stats", {})[1]
    assert metric_stats["tiers"]["metric"] == len(rel_metric_ns) + len(
        heg_metric_ns
    ), "metric queries leaked past the metric tier"

    # asserted baseline: the live numpy kernels on warm states
    rel_kernel_ns, rel_kernel = _drive_endpoint(
        baseline, "/reliance", m_origins, target
    )
    heg_kernel_ns, heg_kernel = _drive_endpoint(
        baseline, "/hegemony", m_origins, target
    )
    for origin in m_origins:
        assert (
            float(rel_metric[origin]).hex()
            == float(rel_kernel[origin]).hex()
        ), f"reliance floats diverged for AS{origin}"
        assert (
            float(heg_metric[origin]).hex()
            == float(heg_kernel[origin]).hex()
        ), f"hegemony floats diverged for AS{origin}"

    metric_legs = {
        "reliance": {
            "metric": _tier_record(rel_metric_ns),
            "kernel": _tier_record(rel_kernel_ns),
        },
        "hegemony": {
            "metric": _tier_record(heg_metric_ns),
            "kernel": _tier_record(heg_kernel_ns),
        },
    }
    metric_speedups = {
        endpoint: legs["kernel"]["mean_us"] / legs["metric"]["mean_us"]
        for endpoint, legs in metric_legs.items()
    }

    # -- multi-worker serving: 1 vs 2 SO_REUSEPORT processes -------------
    qps_one, _ = _worker_load(
        graph, corpus, m_origins, target, rel_metric, workers=1
    )
    qps_two, worker_stats = _worker_load(
        graph, corpus, m_origins, target, rel_metric, workers=2
    )
    store.close()

    tiers = {
        "cold": _tier_record(cold_ns),
        "warm": _tier_record(warm_ns),
        "precomputed": _tier_record(disk_ns),
    }
    speedup_disk = tiers["cold"]["mean_us"] / tiers["precomputed"]["mean_us"]
    speedup_warm = tiers["cold"]["mean_us"] / tiers["warm"]["mean_us"]
    record = {
        "workload": (
            f"{QUERIES} path-length queries cycling over "
            f"{len(origins)} origins toward AS{target}"
        ),
        "ases": len(graph),
        "precompute_s": precompute_s,
        "precomputed_origins": len(graph),
        "tiers": tiers,
        "speedup_precomputed_vs_cold": speedup_disk,
        "speedup_warm_vs_cold": speedup_warm,
        "http": {
            **_tier_record(http_ns),
            "endpoint": "path_length",
            "clients": 1,
            "keep_alive": True,
        },
        "metric": {
            "precompute_s": metric_precompute_s,
            "hegemony_targets": len(metric_targets),
            "queries_per_endpoint": QUERIES,
            "endpoints": metric_legs,
            "speedup_metric_vs_kernel": metric_speedups,
        },
        "latency_histograms": metric_stats["latency"],
        "multi_worker": {
            "clients": WORKER_CLIENTS,
            "queries_per_run": WORKER_CLIENTS * WORKER_QUERIES_PER_CLIENT,
            "endpoint": "reliance",
            "qps_1_worker": qps_one,
            "qps_2_workers": qps_two,
            "speedup_2_workers": qps_two / qps_one,
            "parallel_win_asserted": (os.cpu_count() or 1) >= 2,
            "worker_latency_histograms": worker_stats["latency"],
        },
        "answers_bit_identical": True,
    }
    write_bench_json(
        BENCH_JSON,
        record,
        engine="compiled",
        workers=1,
        metric_shards=True,
        serve_worker_runs=[1, 2],
    )

    assert speedup_disk >= 10.0, (
        f"precomputed tier ({tiers['precomputed']['mean_us']:.1f} us/query) "
        f"is only {speedup_disk:.1f}x faster than cold propagation "
        f"({tiers['cold']['mean_us']:.1f} us/query); expected >=10x"
    )
    for endpoint, speedup in metric_speedups.items():
        legs = metric_legs[endpoint]
        assert speedup >= 10.0, (
            f"metric tier /{endpoint} ({legs['metric']['mean_us']:.1f} "
            f"us/query) is only {speedup:.1f}x faster than the live "
            f"kernel ({legs['kernel']['mean_us']:.1f} us/query); "
            f"expected >=10x"
        )
    if (os.cpu_count() or 1) >= 2:
        assert qps_two > qps_one, (
            f"2 workers ({qps_two:.0f} qps) did not beat 1 worker "
            f"({qps_one:.0f} qps) on a {os.cpu_count()}-CPU host"
        )
