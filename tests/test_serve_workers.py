"""Multi-process serving: SO_REUSEPORT workers under the supervisor.

Correctness first: a burst of concurrent queries spread over >= 2 worker
processes must return **bit-identical** answers (every worker mmaps the
same content-addressed corpus), a SIGKILLed worker must be replaced by
the supervisor with the service still answering, and shard
compaction/GC must refuse to touch a corpus any live worker has leased.
Throughput comparisons live in ``make bench-serve``; here only behavior
is asserted, so everything runs on a 1-CPU container too.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time

import pytest

from .conftest import netgen_graph, sample_origins
from repro.bgpsim.cache import RoutingStateCache
from repro.bgpsim.shards import (
    ShardError,
    ShardStore,
    gc_corpora,
    graph_digest,
    live_leases,
    precompute_metric_shards,
    precompute_shards,
)
from repro.core.hegemony import local_hegemony
from repro.core.reliance import reliance_from_state
from repro.serve import ServiceSpec, WorkerSupervisor

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    graph = netgen_graph("tiny")
    root = tmp_path_factory.mktemp("worker-corpus")
    precompute_shards(graph, root)
    precompute_metric_shards(graph, root)
    return graph, root


@pytest.fixture(scope="module")
def supervisor(corpus):
    graph, root = corpus
    spec = ServiceSpec(graph=graph, shards=str(root))
    with WorkerSupervisor(spec, workers=2) as sup:
        yield graph, root, sup


def get_json(port, path, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def wait_for_workers(sup, count, avoid=(), timeout=90):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = sup.pids()
        if len(pids) >= count and not (set(pids) & set(avoid)):
            return pids
        time.sleep(0.1)
    raise AssertionError(f"workers never reached {count}: {sup.pids()}")


def test_concurrent_burst_is_bit_identical_across_workers(supervisor):
    graph, _root, sup = supervisor
    nodes = sorted(graph.nodes())
    origins = sample_origins(graph, 8, seed=41)
    cache = RoutingStateCache(graph)
    expected = {}
    for origin in origins:
        mass = reliance_from_state(cache.state_for(origin))
        target = nodes[-1] if nodes[-1] != origin else nodes[0]
        heg_target = next(
            t for t in sorted(graph.nodes(), reverse=True) if t != origin
        )
        expected[origin] = {
            "reliance": (target, mass.get(target, 0.0)),
            "hegemony": (
                heg_target,
                local_hegemony(graph, origin, heg_target, cache=cache),
            ),
        }

    answers = []
    pids = []
    failures = []

    def burst(origin):
        # separate connections per thread: the kernel's 4-tuple hash
        # spreads them across the two listening workers
        try:
            health = get_json(sup.port, "/health")
            pids.append(health["pid"])
            target, want = expected[origin]["reliance"]
            got = get_json(
                sup.port, f"/reliance?origin={origin}&target={target}"
            )
            answers.append((got["reliance"], want))
            heg_target, heg_want = expected[origin]["hegemony"]
            got = get_json(
                sup.port, f"/hegemony?origin={origin}&target={heg_target}"
            )
            answers.append((got["hegemony"], heg_want))
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(f"origin {origin}: {exc!r}")

    threads = [
        threading.Thread(target=burst, args=(o,))
        for o in origins
        for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert len(answers) == 2 * len(threads)
    for got, want in answers:
        assert float(got).hex() == float(want).hex()
    # every answer came from one of the supervisor's workers, and the
    # burst actually exercised more than one process
    assert set(pids) <= set(sup.pids()) | set(pids)
    assert len(set(pids)) >= 2, f"all {len(pids)} requests hit one worker"


def test_worker_crash_triggers_restart_and_service_answers(supervisor):
    graph, _root, sup = supervisor
    before = wait_for_workers(sup, 2)
    victim = before[0]
    os.kill(victim, signal.SIGKILL)
    after = wait_for_workers(sup, 2, avoid=[victim])
    assert victim not in after
    assert sup.restarts >= 1
    health = get_json(sup.port, "/health")
    assert health["status"] == "ok" and health["pid"] in after


def wait_for_leases(corpus_dir, count, timeout=90):
    # a freshly (re)spawned worker writes its lease while building the
    # service, which lags the process turning up in ``pids()``
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        leases = live_leases(corpus_dir)
        if len(leases) >= count:
            return leases
        time.sleep(0.1)
    raise AssertionError(
        f"never saw {count} live leases: {live_leases(corpus_dir)}"
    )


def test_live_worker_leases_block_compaction_and_gc(supervisor):
    graph, root, sup = supervisor
    wait_for_workers(sup, 2)
    corpus_dir = root / graph_digest(graph)[:16]
    wait_for_leases(corpus_dir, 2)  # one per worker

    # compaction refuses: the workers' mmaps alias the files it would
    # unlink
    store = ShardStore.open(corpus_dir, graph=graph)
    try:
        with pytest.raises(ShardError, match="live lease"):
            store.compact(shard_size=8)
    finally:
        store.close()

    # GC refuses for the same reason, even when no kept graph matches
    removed, _kept, refused = gc_corpora(root, keep_digests=[])
    assert corpus_dir in refused and corpus_dir not in removed
    assert corpus_dir.exists()


def test_graceful_shutdown_releases_leases(corpus):
    # the module supervisor may still be running with its own leases on
    # this corpus, so only the *new* supervisor's pids are asserted gone
    graph, root = corpus
    corpus_dir = root / graph_digest(graph)[:16]
    spec = ServiceSpec(graph=graph, shards=str(root))
    with WorkerSupervisor(spec, workers=2) as sup:
        pids = wait_for_workers(sup, 2)
        assert get_json(sup.port, "/health")["status"] == "ok"
    mine = {f"{pid}-" for pid in pids}

    def still_held():
        return [
            p
            for p in live_leases(corpus_dir)
            if any(p.name.startswith(prefix) for prefix in mine)
        ]

    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and still_held():
        time.sleep(0.1)
    assert not still_held()


def test_spec_builds_from_graph_file(tmp_path, corpus):
    """Workers spawned from a file-backed spec (the CLI path) rebuild an
    equivalent service: same graph, shards attached, metric tier live."""
    graph, root = corpus
    from repro.topology import dump_graph

    topo = tmp_path / "topo.txt"
    dump_graph(graph, topo, serial=2)
    spec = ServiceSpec(graph_file=str(topo), shards=str(root))
    service = spec.build()
    try:
        assert len(service.graph) == len(graph)
        assert service.metrics is not None
        nodes = sorted(graph.nodes())
        _s, got = service.answer(
            "/reliance", {"origin": str(nodes[0]), "target": str(nodes[-1])}
        )
        cache = RoutingStateCache(graph)
        want = reliance_from_state(cache.state_for(nodes[0])).get(
            nodes[-1], 0.0
        )
        assert float(got["reliance"]).hex() == float(want).hex()
        assert service.metric_hits == 1
    finally:
        service.cache.shards.close()
