"""Differential harness for the precomputed metric-shard tier.

The contract: every ``/reliance`` and ``/hegemony`` answer served off a
metric shard must be **bit-identical** (``float.hex()``) to the live
kernels — ``reliance_from_state`` and ``local_hegemony`` — and every
query the shards cannot answer (uncovered origin, unknown target, the
NaN diagonal, a mutated topology, a trim mismatch) must fall back to
those kernels instead of failing or drifting.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from array import array

import pytest

from .conftest import netgen_graph, sample_origins
from repro.bgpsim import multiorigin
from repro.bgpsim.cache import RoutingStateCache
from repro.bgpsim.shards import (
    MANIFEST_NAME,
    MetricShardReader,
    MetricShardWriter,
    ShardError,
    ShardStore,
    default_metric_targets,
    graph_digest,
    precompute_metric_shards,
    precompute_shards,
)
from repro.core.hegemony import TRIM, local_hegemony
from repro.core.reliance import reliance_from_state
from repro.serve import QueryService


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tiny graph with a full routing + metric corpus (small shards,
    so compaction and multi-file stores are exercised)."""
    graph = netgen_graph("tiny")
    root = tmp_path_factory.mktemp("metric-corpus")
    precompute_shards(graph, root, shard_size=32)
    precompute_metric_shards(graph, root, shard_size=32)
    store = ShardStore.open(root, graph=graph)
    yield graph, root, store
    store.close()


def hexed(value):
    return float(value).hex()


def _file_digests(directory, pattern):
    """``{file name: sha256}`` of a corpus's files matching ``pattern``."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(pattern))
    }


# ---------------------------------------------------------------------------
# bit-identity against the live kernels
# ---------------------------------------------------------------------------


def test_metric_rows_bit_identical_to_live_kernels(corpus):
    graph, _root, store = corpus
    metrics = store.metrics
    assert metrics is not None
    nodes = sorted(graph.nodes())
    assert sorted(metrics.origins()) == nodes
    assert metrics.targets == default_metric_targets(graph)
    assert metrics.trim == TRIM
    cache = RoutingStateCache(graph)
    for origin in sample_origins(graph, 12, seed=31):
        state = cache.state_for(origin)
        live_mass = reliance_from_state(state)
        for target in nodes:
            got = metrics.reliance(origin, target)
            want = live_mass.get(target, 0.0)
            assert got is not None and hexed(got) == hexed(want), (
                f"reliance({origin}, {target})"
            )
        for target in metrics.targets:
            got = metrics.hegemony(origin, target)
            if target == origin:
                assert got is None  # NaN diagonal: live kernel's call
                continue
            want = local_hegemony(graph, origin, target, cache=cache)
            assert got is not None and hexed(got) == hexed(want), (
                f"hegemony({origin}, {target})"
            )


def test_metric_counts_and_routed_round_trip(corpus):
    graph, _root, store = corpus
    from repro.bgpsim.metrics_kernel import (
        path_counts_indexed,
        routed_count_kernel,
    )

    metrics = store.metrics
    # path_counts_indexed reads compiled arrays, whatever REPRO_ENGINE is
    cache = RoutingStateCache(graph, engine="compiled")
    for origin in sample_origins(graph, 6, seed=32):
        state = cache.state_for(origin)
        counts = path_counts_indexed(state)
        record = metrics.record_for(origin)
        assert record.counts_exact
        assert [int(c) for c in record.counts] == list(counts)
        by_asn = metrics.path_counts(origin)
        assert all(by_asn[a] >= 1 for a in by_asn)
        assert metrics.routed_count(origin) == routed_count_kernel(state)


def test_metric_writer_rejects_duplicate_origin(tmp_path):
    graph = netgen_graph("tiny")
    targets = default_metric_targets(graph, 4)
    zeros = array("d", bytes(8 * len(graph)))
    row = (zeros, zeros, array("d", bytes(8 * len(targets))), 0)
    origins = sample_origins(graph, 12, seed=6)
    path = tmp_path / "d.mshard"
    writer = MetricShardWriter(path, graph, targets=targets, trim=TRIM)
    for origin in origins:
        writer.add(origin, *row)
    with pytest.raises(ShardError, match="duplicate origin"):
        writer.add(origins[0], *row)
    writer.close()
    with MetricShardReader(path) as reader:
        assert reader.origins == tuple(origins)


def test_metric_store_miss_semantics(corpus):
    graph, _root, store = corpus
    metrics = store.metrics
    nodes = sorted(graph.nodes())
    origin = nodes[0]
    assert metrics.reliance(999_999_999, nodes[1]) is None
    assert metrics.reliance(origin, 999_999_999) is None
    assert metrics.hegemony(origin, 999_999_999) is None
    assert metrics.hegemony(999_999_999, metrics.targets[0]) is None
    # a target outside the precomputed hegemony set misses even when it
    # is a perfectly good node
    uncovered = [n for n in nodes if n not in set(metrics.targets)]
    if uncovered:
        assert metrics.hegemony(origin, uncovered[0]) is None


# ---------------------------------------------------------------------------
# resume / force semantics
# ---------------------------------------------------------------------------


def test_metric_precompute_resumes_untouched(tmp_path):
    graph = netgen_graph("tiny")
    every = sorted(graph.nodes())
    half = every[: len(every) // 2]
    root = tmp_path / "corpus"
    precompute_metric_shards(graph, root, origins=half, shard_size=16)
    target = root / graph_digest(graph)[:16]
    manifest = json.loads((target / MANIFEST_NAME).read_text())
    base = [s["file"] for s in manifest["metric_shards"]]
    stamps = {f: (target / f).stat().st_mtime_ns for f in base}

    precompute_metric_shards(graph, root, shard_size=16)
    merged = json.loads((target / MANIFEST_NAME).read_text())
    files = [s["file"] for s in merged["metric_shards"]]
    assert files[: len(base)] == base and len(files) > len(base)
    assert merged["metric_origins"] == len(every)
    for f, stamp in stamps.items():
        assert (target / f).stat().st_mtime_ns == stamp

    # a second full pass is a no-op
    before = sorted(p.name for p in target.iterdir())
    precompute_metric_shards(graph, root, shard_size=16)
    assert sorted(p.name for p in target.iterdir()) == before

    with ShardStore.open(target, graph=graph) as store:
        cache = RoutingStateCache(graph)
        for origin in sample_origins(graph, 6, seed=33):
            state = cache.state_for(origin)
            live_mass = reliance_from_state(state)
            got = store.metrics.reliance(origin, every[-1])
            assert hexed(got) == hexed(live_mass.get(every[-1], 0.0))


def test_metric_precompute_reads_no_routing_records(tmp_path):
    """The metric pass propagates its own batches: with routing shards
    present it reads none of their records, and writes the same files
    as into an empty corpus."""
    graph = netgen_graph("tiny")
    root = tmp_path / "corpus"
    precompute_shards(graph, root)
    import repro.bgpsim.shards as shards_mod

    calls = []
    original = shards_mod.ShardReader.state_for

    def spy(self, origin):
        calls.append(origin)
        return original(self, origin)

    shards_mod.ShardReader.state_for = spy
    try:
        corpus = precompute_metric_shards(graph, root)
    finally:
        shards_mod.ShardReader.state_for = original
    assert calls == []
    bare = precompute_metric_shards(graph, tmp_path / "bare")
    assert _file_digests(corpus, "*.mshard") == _file_digests(
        bare, "*.mshard"
    )


def test_metric_precompute_worker_count_changes_no_byte(
    tmp_path, monkeypatch
):
    """Metric records are built in the workers and come back in input
    order: a corpus built by two processes equals a serial one."""
    monkeypatch.setattr(multiorigin, "DEFAULT_BATCH", 64)
    graph = netgen_graph("small")
    corpora = [
        precompute_metric_shards(
            graph, tmp_path / f"w{workers}", workers=workers, shard_size=200
        )
        for workers in (1, 2)
    ]
    serial, parallel = (_file_digests(c, "*.mshard") for c in corpora)
    assert len(serial) > 1
    assert serial == parallel


@pytest.mark.parametrize("workers", [1, 2])
def test_metric_precompute_stamps_its_workers(tmp_path, workers):
    """A metric pass that creates the manifest records the worker count
    it ran with."""
    graph = netgen_graph("tiny")
    corpus = precompute_metric_shards(graph, tmp_path, workers=workers)
    manifest = json.loads((corpus / MANIFEST_NAME).read_text())
    assert manifest["workers"] == workers


def test_metric_target_and_trim_changes_require_force(tmp_path):
    graph = netgen_graph("tiny")
    root = tmp_path / "corpus"
    nodes = sorted(graph.nodes())
    precompute_metric_shards(graph, root, targets=nodes[:4], trim=0.1)
    with pytest.raises(ShardError, match="force"):
        precompute_metric_shards(graph, root, targets=nodes[:6])
    with pytest.raises(ShardError, match="force"):
        precompute_metric_shards(graph, root, trim=0.25)
    # force rebuilds with the new knobs
    precompute_metric_shards(
        graph, root, targets=nodes[:6], trim=0.25, force=True
    )
    with ShardStore.open(root, graph=graph) as store:
        assert store.metrics.targets == tuple(nodes[:6])
        assert store.metrics.trim == 0.25
        cache = RoutingStateCache(graph)
        origin = nodes[-1]
        want = local_hegemony(
            graph, origin, nodes[0], cache=cache, trim=0.25
        )
        assert hexed(store.metrics.hegemony(origin, nodes[0])) == hexed(want)


def test_metric_precompute_rejects_unknown_target(tmp_path):
    graph = netgen_graph("tiny")
    with pytest.raises(ShardError, match="not in graph"):
        precompute_metric_shards(
            graph, tmp_path / "corpus", targets=[999_999_999]
        )


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------


def test_torn_metric_shard_rejected(tmp_path):
    graph = netgen_graph("tiny")
    root = tmp_path / "corpus"
    precompute_metric_shards(graph, root, shard_size=1024)
    target = root / graph_digest(graph)[:16]
    shard = next(target.glob("*.mshard"))
    whole = shard.read_bytes()
    # crash-before-seal: zero the header (index_off back-patch missing)
    shard.write_bytes(b"\x00" * 64 + whole[64:])
    with pytest.raises(ShardError, match="bad magic"):
        MetricShardReader(shard)
    sealedless = bytearray(whole)
    # keep the magic but zero index_off (offset 32 in the header layout)
    struct.pack_into("<Q", sealedless, 32, 0)
    shard.write_bytes(bytes(sealedless))
    with pytest.raises(ShardError, match="unsealed"):
        MetricShardReader(shard)
    shard.write_bytes(whole[: len(whole) - 32])
    with pytest.raises(ShardError, match="truncated"):
        MetricShardReader(shard)
    shard.write_bytes(whole)
    with pytest.raises(ShardError, match="precomputed for graph"):
        MetricShardReader(
            shard, expected_digest=graph_digest(netgen_graph("tiny", seed=7))
        )
    MetricShardReader(shard).close()  # restored bytes read fine again


def test_flipped_bit_in_a_metric_record_is_rejected(tmp_path):
    graph = netgen_graph("tiny")
    root = tmp_path / "corpus"
    precompute_metric_shards(graph, root, shard_size=1024)
    target = root / graph_digest(graph)[:16]
    shard = next(target.glob("*.mshard"))
    with MetricShardReader(shard) as reader:
        victim = reader.origins[5]
        offset, nbytes, _crc = reader._index[victim]
    data = bytearray(shard.read_bytes())
    data[offset + nbytes // 2] ^= 0x01  # one bit inside the record body
    shard.write_bytes(bytes(data))
    names_it = rf"{re.escape(str(shard))}.*AS{victim}\b"
    with ShardStore.open(target, graph=graph) as store:
        metrics = store.metrics
        with pytest.raises(ShardError, match=names_it):
            metrics.reliance(victim, sorted(graph.nodes())[0])
        with pytest.raises(ShardError, match=names_it):
            metrics.record_for(victim)
        for origin in metrics.origins():
            if origin != victim:
                assert metrics.record_for(origin).counts_exact
        with pytest.raises(ShardError, match=names_it):
            store.check()


# ---------------------------------------------------------------------------
# the QueryService metric tier
# ---------------------------------------------------------------------------


def test_service_serves_metrics_bit_identical(corpus):
    graph, _root, store = corpus
    service = QueryService(graph, shards=store)
    assert service.metrics is store.metrics
    nodes = sorted(graph.nodes())
    origin, target = nodes[0], service.metrics.targets[-1]
    if target == origin:
        target = service.metrics.targets[0]
    live_cache = RoutingStateCache(graph)
    live_mass = reliance_from_state(live_cache.state_for(origin))

    status, got = service.answer(
        "/reliance", {"origin": str(origin), "target": str(nodes[-1])}
    )
    assert status == 200
    assert hexed(got["reliance"]) == hexed(live_mass.get(nodes[-1], 0.0))
    status, got = service.answer(
        "/hegemony", {"origin": str(origin), "target": str(target)}
    )
    assert status == 200
    want = local_hegemony(graph, origin, target, cache=live_cache)
    assert hexed(got["hegemony"]) == hexed(want)

    # both answers came off the metric tier: no state was ever built
    assert service.metric_hits == 2 and service.metric_misses == 0
    _status, stats = service.answer("/stats", {})
    assert stats["tiers"] == {
        "lru": 0,
        "metric": 2,
        "disk": 0,
        "computed": 0,
    }
    assert stats["metrics"]["targets"] == len(service.metrics.targets)
    assert stats["latency"]["/reliance"]["count"] == 1


def test_service_zero_reliance_is_a_hit_not_a_fallback(corpus):
    graph, _root, store = corpus
    service = QueryService(graph, shards=store)
    nodes = sorted(graph.nodes())
    origin = nodes[0]
    live_mass = reliance_from_state(RoutingStateCache(graph).state_for(origin))
    zero = next(t for t in nodes if live_mass.get(t, 0.0) == 0.0)
    _status, got = service.answer(
        "/reliance", {"origin": str(origin), "target": str(zero)}
    )
    assert got["reliance"] == 0.0
    assert service.metric_hits == 1 and service.metric_misses == 0


def test_service_falls_back_for_uncovered_queries(tmp_path):
    graph = netgen_graph("tiny")
    every = sorted(graph.nodes())
    half = every[: len(every) // 2]
    root = tmp_path / "corpus"
    precompute_shards(graph, root)
    precompute_metric_shards(graph, root, origins=half)
    with ShardStore.open(root, graph=graph) as store:
        service = QueryService(graph, shards=store)
        uncovered = every[-1]
        assert uncovered not in store.metrics
        live_cache = RoutingStateCache(graph)
        live_mass = reliance_from_state(live_cache.state_for(uncovered))
        _s, got = service.answer(
            "/reliance", {"origin": str(uncovered), "target": str(every[0])}
        )
        assert hexed(got["reliance"]) == hexed(live_mass.get(every[0], 0.0))
        assert service.metric_hits == 0 and service.metric_misses == 1
        # the diagonal always falls back to the live definition
        covered = half[0]
        _s, got = service.answer(
            "/hegemony", {"origin": str(covered), "target": str(covered)}
        )
        want = local_hegemony(graph, covered, covered, cache=live_cache)
        if math.isnan(want):
            assert math.isnan(got["hegemony"])
        else:
            assert hexed(got["hegemony"]) == hexed(want)


def test_service_trim_mismatch_bypasses_metric_tier(corpus):
    graph, _root, store = corpus
    service = QueryService(graph, shards=store, trim=0.3)
    origin = sorted(graph.nodes())[0]
    target = next(t for t in store.metrics.targets if t != origin)
    _s, got = service.answer(
        "/hegemony", {"origin": str(origin), "target": str(target)}
    )
    want = local_hegemony(
        graph, origin, target, cache=RoutingStateCache(graph), trim=0.3
    )
    assert hexed(got["hegemony"]) == hexed(want)
    assert service.metric_hits == 0 and service.metric_misses == 1
    assert not service.metric_covers("/hegemony", origin)
    # reliance is trim-independent: still served off the shards
    assert service.metric_covers("/reliance", origin)


def test_service_metric_tier_gated_on_topology_mutation(corpus):
    graph, _root, store = corpus
    service = QueryService(graph, shards=store)
    nodes = sorted(graph.nodes())
    origin = nodes[0]
    target = next(t for t in store.metrics.targets if t != origin)
    query = {"origin": str(origin), "target": str(target)}
    service.answer("/hegemony", query)
    assert service.metric_hits == 1

    a = nodes[0]
    providers = sorted(graph.providers(a)) or sorted(graph.peers(a))
    b = providers[0]
    relationship = "p2c" if b in graph.providers(a) else "p2p"
    graph.remove_edge(b, a)
    service.cache.invalidate()
    _s, mutated = service.answer("/hegemony", query)
    assert service.metric_misses >= 1  # stale digest: kernel answered
    want = local_hegemony(
        graph, origin, target, cache=RoutingStateCache(graph)
    )
    assert hexed(mutated["hegemony"]) == hexed(want)

    # restoring the topology reopens the gate
    if relationship == "p2c":
        graph.add_p2c(b, a)
    else:
        graph.add_p2p(b, a)
    service.cache.invalidate()
    before = service.metric_hits
    service.answer("/hegemony", query)
    assert service.metric_hits == before + 1


def test_service_without_metrics_unchanged(tmp_path):
    graph = netgen_graph("tiny")
    root = tmp_path / "corpus"
    precompute_shards(graph, root)  # routing shards only
    with ShardStore.open(root, graph=graph) as store:
        assert store.metrics is None
        service = QueryService(graph, shards=store)
        assert service.metrics is None
        origin = sorted(graph.nodes())[0]
        _s, got = service.answer(
            "/reliance",
            {"origin": str(origin), "target": str(sorted(graph.nodes())[-1])},
        )
        assert "reliance" in got
        assert service.metric_hits == 0 and service.metric_misses == 0
