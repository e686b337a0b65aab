"""Differential + failure-mode harness for the on-disk routing shards.

The contract under test: ``precompute_shards`` → ``ShardReader``/
``ShardStore`` must hand back, zero-copy off an mmap, exactly the states
live propagation produces — across netgen seeds, for the *full*
small-profile origin set, through the cache's disk tier, and never from
a torn, truncated, or wrong-graph shard file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from .conftest import assert_states_equal, netgen_graph, sample_origins
import repro
from repro.bgpsim import (
    RoutingStateCache,
    Seed,
    graph_digest,
    precompute_shards,
    propagate_batch,
    propagate_compiled,
)
from repro.bgpsim import shards
from repro.bgpsim.shards import (
    MANIFEST_NAME,
    MetricShardReader,
    ShardError,
    ShardReader,
    ShardStore,
    ShardWriter,
    precompute_metric_shards,
)


def write_shard(tmp_path, graph, origins, name="one.shard"):
    path = tmp_path / name
    with ShardWriter(path, graph) as writer:
        for origin, view in propagate_batch(graph, tuple(origins)).views():
            writer.add(origin, view)
    return path


def flip_bit(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x10
    path.write_bytes(bytes(data))


def file_digests(directory):
    """sha256 of every file under ``directory`` (leases excluded)."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(Path(directory).rglob("*"))
        if path.is_file() and path.parent.name != "leases"
    }


def record_bytes(store):
    """Every record's bytes in a store, keyed by kind and origin."""
    metric = () if store.metrics is None else store.metrics._readers
    return {
        (kind, origin): bytes(reader.record_bytes(origin))
        for kind, readers in (("routing", store._readers), ("metric", metric))
        for reader in readers
        for origin in reader.origins
    }


def assert_same_routing(disk, live, context=""):
    """Cheap array-level equality: class/length per node are canonical
    (identical regardless of parent-pool layout), so they compare as
    flat lists without materializing routes."""
    assert list(disk._asns) == list(live._asns), context
    assert list(disk._route_class) == list(live._route_class), context
    assert list(disk._length) == list(live._length), context
    assert sorted(disk._routed) == sorted(live._routed), context


# ---------------------------------------------------------------------------
# format round-trip
# ---------------------------------------------------------------------------


def test_header_and_offset_index_round_trip(tmp_path):
    graph = netgen_graph("tiny")
    origins = sample_origins(graph, 12, seed=1)
    path = write_shard(tmp_path, graph, origins)
    with ShardReader(path) as reader:
        assert reader.n_nodes == len(graph)
        assert reader.digest == graph_digest(graph)
        assert sorted(reader.origins) == sorted(origins)
        assert len(reader) == len(origins)
        assert origins[0] in reader
        assert 999_999_999 not in reader
        with pytest.raises(KeyError):
            reader.state_for(999_999_999)


@pytest.mark.parametrize("seed", [20200901, 7, 1234])
def test_mmap_states_equal_pickled_states(tmp_path, seed):
    """Zero-copy mmap states ≡ the pickled standalone states the batch
    views produce, on multiple netgen seeds."""
    graph = netgen_graph("tiny", seed=seed)
    origins = sample_origins(graph, 16, seed=seed)
    path = write_shard(tmp_path, graph, origins, name=f"s{seed}.shard")
    views = dict(propagate_batch(graph, tuple(origins)).views())
    with ShardReader(path) as reader:
        for origin in origins:
            pickled = pickle.loads(pickle.dumps(views[origin]))
            disk = reader.state_for(origin)
            assert_states_equal(disk, pickled, f"origin={origin} seed={seed}")
            # the arrays really are aliases onto the map, not copies
            assert disk._length.obj is reader._mm


def test_full_small_profile_differential(tmp_path):
    """Acceptance: precompute + read back the *full* small-profile
    origin set; every state equals ``propagate_compiled`` output."""
    graph = netgen_graph("small")
    target = precompute_shards(graph, tmp_path / "out", workers=1)
    with ShardStore.open(target, graph=graph) as store:
        every = sorted(graph.nodes())
        assert sorted(store.origins()) == every
        for origin in every:
            live = propagate_compiled(graph, (Seed(asn=origin),))
            assert_same_routing(
                store.state_for(origin), live, f"origin={origin}"
            )
        # parent sets / origins on a sample, through full materialization
        for origin in sample_origins(graph, 25, seed=3):
            live = propagate_compiled(graph, (Seed(asn=origin),))
            assert_states_equal(
                store.state_for(origin), live, f"origin={origin}"
            )


def test_precompute_is_idempotent_and_sharded(tmp_path):
    graph = netgen_graph("tiny")
    origins = sample_origins(graph, 10, seed=2)
    target = precompute_shards(
        graph, tmp_path / "out", origins=origins, workers=1, shard_size=4
    )
    manifest = json.loads((target / MANIFEST_NAME).read_text())
    assert manifest["graph_digest"] == graph_digest(graph)
    assert len(manifest["shards"]) == 3  # 4 + 4 + 2 origins
    assert sum(s["origins"] for s in manifest["shards"]) == 10
    stamps = {p.name: p.stat().st_mtime_ns for p in target.iterdir()}
    # a second run over a subset reuses the complete corpus untouched
    again = precompute_shards(
        graph, tmp_path / "out", origins=origins[:4], workers=1
    )
    assert again == target
    assert {p.name: p.stat().st_mtime_ns for p in target.iterdir()} == stamps


def test_concurrent_readers_over_one_file(tmp_path):
    graph = netgen_graph("tiny")
    origins = sample_origins(graph, 20, seed=4)
    path = write_shard(tmp_path, graph, origins)
    expected = {
        o: propagate_compiled(graph, (Seed(asn=o),)) for o in origins
    }
    readers = [ShardReader(path) for _ in range(3)]
    failures: list[str] = []

    def hammer(reader: ShardReader) -> None:
        try:
            for _ in range(5):
                for origin in origins:
                    assert_same_routing(
                        reader.state_for(origin),
                        expected[origin],
                        f"origin={origin}",
                    )
        except AssertionError as exc:  # pragma: no cover
            failures.append(str(exc))

    threads = [
        threading.Thread(target=hammer, args=(r,))
        for r in readers
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    for reader in readers:
        reader.close()


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------


def test_graph_digest_mismatch_rejected(tmp_path):
    graph = netgen_graph("tiny", seed=20200901)
    other = netgen_graph("tiny", seed=7)
    target = precompute_shards(
        graph,
        tmp_path / "out",
        origins=sample_origins(graph, 4, seed=5),
        workers=1,
    )
    with pytest.raises(ShardError, match="precomputed for graph"):
        ShardStore.open(target, graph=other)
    # the reader-level check too
    shard = next(target.glob("*.shard"))
    with pytest.raises(ShardError, match="precomputed for graph"):
        ShardReader(shard, expected_digest=graph_digest(other))
    # and the cache refuses to attach a mismatched store
    with ShardStore.open(target) as store:
        with pytest.raises(ShardError, match="precomputed for graph"):
            RoutingStateCache(other, shards=store)


def test_unsealed_shard_rejected(tmp_path):
    graph = netgen_graph("tiny")
    writer = ShardWriter(tmp_path / "torn.shard", graph)
    for origin, view in propagate_batch(
        graph, tuple(sample_origins(graph, 3, seed=6))
    ).views():
        writer.add(origin, view)
    writer._handle.close()  # crash before close(): header never patched
    with pytest.raises(ShardError, match="unsealed"):
        ShardReader(tmp_path / "torn.shard")


def test_truncated_shard_rejected(tmp_path):
    graph = netgen_graph("tiny")
    path = write_shard(tmp_path, graph, sample_origins(graph, 5, seed=7))
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) - 64])  # chop the index tail
    with pytest.raises(ShardError, match="truncated"):
        ShardReader(path)
    path.write_bytes(whole[:40])  # not even a full header
    with pytest.raises(ShardError, match="truncated"):
        ShardReader(path)
    path.write_bytes(whole)
    with ShardReader(path) as reader:
        offset, nbytes, _crc = reader._index[reader.origins[2]]
    path.write_bytes(whole[: offset + nbytes // 2])  # cut inside a record
    with pytest.raises(ShardError, match=r"truncated \("):
        ShardReader(path)
    # an index row whose record would run into the index
    (index_off,) = struct.unpack_from("<Q", whole, 32)
    bad_row = bytearray(whole)
    struct.pack_into("<Q", bad_row, index_off + 8, index_off)
    path.write_bytes(bytes(bad_row))
    with pytest.raises(ShardError, match="points past the index"):
        ShardReader(path)


def test_flipped_bit_in_a_record_is_rejected(tmp_path):
    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path, workers=1, shard_size=64)
    shard = target / "shard-00001.shard"
    with ShardReader(shard) as reader:
        victim = reader.origins[3]
        offset, nbytes, _crc = reader._index[victim]
    flip_bit(shard, offset + nbytes - 3)
    names_it = rf"{re.escape(str(shard))}.*AS{victim}\b"
    with ShardStore.open(target, graph=graph) as store:
        for _ in range(2):  # a failed check is not remembered as passed
            with pytest.raises(ShardError, match=names_it):
                store.state_for(victim)
        for origin in store.origins():
            if origin != victim:
                live = propagate_compiled(graph, (Seed(asn=origin),))
                assert_same_routing(store.state_for(origin), live, origin)
        with pytest.raises(ShardError, match=names_it):
            store.check()


def test_corrupted_header_rejected(tmp_path):
    graph = netgen_graph("tiny")
    path = write_shard(tmp_path, graph, sample_origins(graph, 5, seed=8))
    whole = bytearray(path.read_bytes())
    bad_magic = bytearray(whole)
    bad_magic[:8] = b"NOTSHARD"
    path.write_bytes(bytes(bad_magic))
    with pytest.raises(ShardError, match="bad magic"):
        ShardReader(path)
    bad_version = bytearray(whole)
    struct.pack_into("<I", bad_version, 8, 99)
    path.write_bytes(bytes(bad_version))
    with pytest.raises(ShardError, match="version 99"):
        ShardReader(path)
    # a version-1 file is refused with the fix, not read
    struct.pack_into("<I", bad_version, 8, 1)
    path.write_bytes(bytes(bad_version))
    with pytest.raises(ShardError, match="version 1;.*rebuild"):
        ShardReader(path)


def test_writer_validation(tmp_path):
    graph = netgen_graph("tiny")
    origins = sample_origins(graph, 2, seed=9)
    views = dict(propagate_batch(graph, tuple(origins)).views())
    writer = ShardWriter(tmp_path / "v.shard", graph)
    writer.add(origins[0], views[origins[0]])
    with pytest.raises(ShardError, match="duplicate origin"):
        writer.add(origins[0], views[origins[0]])
    with pytest.raises(ShardError, match="single-origin"):
        writer.add(origins[1], views[origins[0]])
    with pytest.raises(ShardError, match="array-backed"):
        writer.add(origins[1], object())
    writer.close()
    with pytest.raises(ShardError, match="sealed"):
        writer.add(origins[1], views[origins[1]])
    assert ShardReader(tmp_path / "v.shard").origins == (origins[0],)


def test_duplicate_origin_rejected_after_many_records(tmp_path):
    graph = netgen_graph("tiny")
    origins = sample_origins(graph, 12, seed=4)
    writer = ShardWriter(tmp_path / "d.shard", graph)
    for origin, view in propagate_batch(graph, tuple(origins)).views():
        writer.add(origin, view)
    with pytest.raises(ShardError, match="duplicate origin"):
        writer.add(origins[0], propagate_compiled(graph, Seed(asn=origins[0])))
    writer.close()
    assert ShardReader(tmp_path / "d.shard").origins == tuple(origins)


def test_views_and_compiled_states_write_identical_bytes(tmp_path):
    # a batch view's arrays are the per-origin kernel's, typecodes
    # included, so the two shard files agree byte for byte
    graph = netgen_graph("small", seed=7)
    origins = sample_origins(graph, 40, seed=3)
    with ShardWriter(tmp_path / "views.shard", graph) as writer:
        for origin, view in propagate_batch(graph, tuple(origins)).views():
            writer.add(origin, view)
    with ShardWriter(tmp_path / "compiled.shard", graph) as writer:
        for origin in origins:
            writer.add(origin, propagate_compiled(graph, Seed(asn=origin)))
    assert (tmp_path / "views.shard").read_bytes() == (
        tmp_path / "compiled.shard"
    ).read_bytes()


def test_store_open_failures(tmp_path):
    with pytest.raises(ShardError, match="no manifest.json"):
        ShardStore.open(tmp_path)
    (tmp_path / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(ShardError, match="unreadable manifest"):
        ShardStore.open(tmp_path)
    (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
    with pytest.raises(ShardError, match="not a shard manifest"):
        ShardStore.open(tmp_path)


# ---------------------------------------------------------------------------
# the cache's disk tier
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_corpus(tmp_path):
    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path / "corpus", workers=1)
    store = ShardStore.open(target, graph=graph)
    yield graph, store
    store.close()


def test_state_for_falls_through_to_disk(tiny_corpus):
    graph, store = tiny_corpus
    cache = RoutingStateCache(graph, shards=store)
    origin = sorted(graph.nodes())[0]
    state = cache.state_for(origin)
    live = propagate_compiled(graph, (Seed(asn=origin),))
    assert_states_equal(state, live, "disk tier")
    stats = cache.stats()
    assert (stats.hits, stats.disk_hits, stats.misses) == (0, 1, 0)
    assert stats.tiers == {"lru": 0, "disk": 1, "computed": 0}
    # second read is a warm LRU hit (the disk hit was installed)
    cache.state_for(origin)
    assert cache.stats().tiers == {"lru": 1, "disk": 1, "computed": 0}


def test_prefetch_and_baseline_consult_disk(tiny_corpus):
    graph, store = tiny_corpus
    cache = RoutingStateCache(graph, shards=store)
    origins = sample_origins(graph, 8, seed=10)
    computed = cache.prefetch(origins)
    assert computed == 0  # everything came off the map
    stats = cache.stats()
    assert stats.disk_hits == len(origins) and stats.misses == 0
    # plain-seed baselines ride the same tiers...
    other = sample_origins(graph, 20, seed=11)[-1]
    cache2 = RoutingStateCache(graph, shards=store)
    cache2.baseline_for(Seed(asn=other))
    assert cache2.stats().disk_hits == 1
    # ...but locked/leak baselines are not plain origin states: computed
    cache2.baseline_for(
        Seed(asn=other), peer_locked=frozenset({origins[0]})
    )
    assert cache2.stats().misses == 1


def test_states_for_many_disk_and_stream(tiny_corpus):
    graph, store = tiny_corpus
    every = sorted(graph.nodes())
    cache = RoutingStateCache(graph, shards=store)
    out = dict(cache.states_for_many(every, batch=16, stream=True))
    assert sorted(out) == every
    assert len(cache) == 0  # stream mode never fills the LRU
    stats = cache.stats()
    assert stats.disk_hits == len(every) and stats.misses == 0
    live = propagate_compiled(graph, (Seed(asn=every[3]),))
    assert_states_equal(out[every[3]], live, "streamed disk state")


def test_disk_tier_disabled_while_topology_mutated(tiny_corpus):
    graph, store = tiny_corpus
    cache = RoutingStateCache(graph, shards=store)
    a = sorted(graph.nodes())[0]
    providers = sorted(graph.providers(a)) or sorted(graph.peers(a))
    b = providers[0]
    relationship = "p2c" if b in graph.providers(a) else "p2p"
    graph.remove_edge(b, a)
    cache.invalidate()
    cache.state_for(a)  # digest mismatch: must propagate, not read disk
    assert cache.stats().disk_hits == 0
    assert cache.stats().misses == 1
    # restoring the topology restores the digest — disk tier resumes
    if relationship == "p2c":
        graph.add_p2c(b, a)
    else:
        graph.add_p2p(b, a)
    cache.invalidate()
    cache.state_for(a)
    assert cache.stats().disk_hits == 1


# ---------------------------------------------------------------------------
# streaming memory bound (satellite: O(batch) sweeps)
# ---------------------------------------------------------------------------


def _stream_peak(graph, origins, batch):
    cache = RoutingStateCache(graph)
    tracemalloc.start()
    try:
        for _origin, state in cache.states_for_many(
            origins, batch=batch, stream=True
        ):
            state.path_length(origins[0])  # touch, then drop
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == 0
    return peak


def test_streaming_sweep_memory_is_o_batch():
    graph = netgen_graph("tiny")
    graph.compile()  # charge one-time compile outside the measurement
    every = sorted(graph.nodes())
    # warm-up pass so interpreter/allocator one-time costs don't count
    _stream_peak(graph, every[:8], batch=8)
    quarter = _stream_peak(graph, every[: len(every) // 4], batch=8)
    full = _stream_peak(graph, every, batch=8)
    # 4x the origins must NOT mean 4x the peak: the window is the bound
    assert full < 2 * quarter, (full, quarter)
    # and streaming must be far below holding the whole sweep
    cache = RoutingStateCache(graph)
    tracemalloc.start()
    try:
        held = dict(cache.states_for_many(every, batch=8))
        _size, hold_all = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held and full < hold_all / 2, (full, hold_all)


# ---------------------------------------------------------------------------
# resuming a partial corpus
# ---------------------------------------------------------------------------


def test_precompute_resumes_partial_corpus(tmp_path):
    graph = netgen_graph("tiny")
    every = sorted(graph.nodes())
    half = every[: len(every) // 2]
    target = precompute_shards(
        graph, tmp_path / "corpus", origins=half, workers=1, shard_size=16
    )
    manifest = json.loads((target / "manifest.json").read_text())
    base_shards = [s["file"] for s in manifest["shards"]]
    stamps = {f: (target / f).stat().st_mtime_ns for f in base_shards}

    # extending to the full origin set keeps every existing shard file
    # untouched and appends only the missing origins
    again = precompute_shards(
        graph, tmp_path / "corpus", workers=1, shard_size=16
    )
    assert again == target
    merged = json.loads((target / "manifest.json").read_text())
    assert merged["origins"] == len(every)
    merged_files = [s["file"] for s in merged["shards"]]
    assert merged_files[: len(base_shards)] == base_shards
    assert len(merged_files) > len(base_shards)
    for f, stamp in stamps.items():
        assert (target / f).stat().st_mtime_ns == stamp

    # and the merged corpus answers every origin bit-identically
    with ShardStore.open(target, graph=graph) as store:
        assert sorted(store.origins()) == every
        for origin in sample_origins(graph, 8, seed=21):
            live = propagate_compiled(graph, (Seed(asn=origin),))
            assert_states_equal(
                store.state_for(origin), live, f"(resumed origin={origin})"
            )


def test_partial_corpus_streams_mixed_tiers(tmp_path):
    graph = netgen_graph("tiny")
    every = sorted(graph.nodes())
    half = every[: len(every) // 2]
    target = precompute_shards(
        graph, tmp_path / "corpus", origins=half, workers=1
    )
    with ShardStore.open(target, graph=graph) as store:
        cache = RoutingStateCache(graph, shards=store)
        out = dict(cache.states_for_many(every, batch=16, stream=True))
        stats = cache.stats()
        # precomputed origins come off the map, the rest are propagated
        assert stats.disk_hits == len(half)
        assert stats.misses == len(every) - len(half)
        for origin in sample_origins(graph, 8, seed=22):
            live = propagate_compiled(graph, (Seed(asn=origin),))
            assert_states_equal(
                out[origin], live, f"(mixed-tier origin={origin})"
            )


def test_forced_rebuild_leaves_mapped_files_intact(tmp_path):
    graph = netgen_graph("tiny")
    every = sorted(graph.nodes())
    target = precompute_shards(
        graph, tmp_path, origins=every[::-1], workers=1, shard_size=4
    )
    with ShardStore.open(target, graph=graph, lease=True) as held:
        early = held.state_for(every[0])
        precompute_shards(
            graph, tmp_path, workers=1, shard_size=4, force=True
        )
        for origin in every:
            live = propagate_compiled(graph, (Seed(asn=origin),))
            assert_same_routing(held.state_for(origin), live, origin)
        live = propagate_compiled(graph, (Seed(asn=every[0]),))
        assert_same_routing(early, live, "state handed out before")


@pytest.mark.parametrize(
    "first_file", ["shard-00000.shard", "metrics-00000.mshard"]
)
def test_sigkilled_precompute_resumes_byte_identical(tmp_path, first_file):
    """SIGKILL ``repro precompute --metrics`` once its first routing (or
    metric) shard exists; a rerun writes exactly the bytes of an
    uninterrupted run."""
    from repro.cli import main

    topo = tmp_path / "topo.txt"
    assert main(["generate", "tiny", "-o", str(topo)]) == 0
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "repro.cli", "precompute", str(topo),
            "--metrics", "-q", "--shard-size", "4", "-o"]
    run = dict(env=env, stdout=subprocess.DEVNULL, timeout=300)
    subprocess.run([*argv, str(tmp_path / "whole")], check=True, **run)

    killed = tmp_path / "killed"
    proc = subprocess.Popen(
        [*argv, str(killed)], env=env, stdout=subprocess.DEVNULL
    )
    try:
        deadline = time.monotonic() + 300
        while not any(killed.glob(f"*/{first_file}")):
            assert time.monotonic() < deadline, "precompute never started"
            time.sleep(0.001)
    finally:
        proc.kill()  # SIGKILL
        proc.wait(timeout=60)
    subprocess.run([*argv, str(killed)], check=True, **run)
    assert file_digests(killed) == file_digests(tmp_path / "whole")


def test_precompute_force_rebuilds_partial(tmp_path):
    graph = netgen_graph("tiny")
    every = sorted(graph.nodes())
    target = precompute_shards(
        graph, tmp_path / "corpus", origins=every[:8], workers=1
    )
    first = json.loads((target / "manifest.json").read_text())["origins"]
    assert first == 8
    precompute_shards(graph, tmp_path / "corpus", workers=1, force=True)
    rebuilt = json.loads((target / "manifest.json").read_text())
    assert rebuilt["origins"] == len(every)


# ---------------------------------------------------------------------------
# corpus discovery, compaction, GC
# ---------------------------------------------------------------------------


def test_open_discovers_renamed_corpus(tmp_path):
    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path, workers=1)
    renamed = tmp_path / "nightly-2020-09-01"
    target.rename(renamed)
    with ShardStore.open(tmp_path, graph=graph) as store:
        assert store.directory == renamed
        origin = sorted(graph.nodes())[0]
        live = propagate_compiled(graph, (Seed(asn=origin),))
        assert_states_equal(store.state_for(origin), live, "(discovered)")


def test_open_picks_newest_matching_corpus(tmp_path):
    import os as _os
    import shutil as _shutil

    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path, workers=1)
    older = tmp_path / "older"
    newer = tmp_path / "newer"
    _shutil.copytree(target, older)
    target.rename(newer)
    stale = (newer / MANIFEST_NAME).stat().st_mtime - 3600
    _os.utime(older / MANIFEST_NAME, (stale, stale))
    with ShardStore.open(tmp_path, graph=graph) as store:
        assert store.directory == newer


def test_open_without_matching_corpus_names_digests(tmp_path):
    graph = netgen_graph("tiny")
    other = netgen_graph("tiny", seed=7)
    precompute_shards(other, tmp_path, workers=1)
    with pytest.raises(ShardError) as exc:
        ShardStore.open(tmp_path, graph=graph)
    message = str(exc.value)
    # names both the digest the graph needs and the one that was found
    assert graph_digest(graph)[:16] in message
    assert graph_digest(other)[:16] in message
    assert "repro precompute" in message


def test_compact_merges_rolling_files_bit_identical(tmp_path):
    from repro.bgpsim.shards import precompute_metric_shards

    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path, shard_size=4, workers=1)
    precompute_metric_shards(graph, tmp_path, shard_size=4)
    with ShardStore.open(target, graph=graph, lease=True) as store:
        assert len(store.manifest["shards"]) > 1
        assert len(store.manifest["metric_shards"]) > 1
        origins = sample_origins(graph, 6, seed=31)
        heg_target = store.metrics.targets[0]
        before = {
            o: (
                store.metrics.reliance(o, sorted(graph.nodes())[-1]),
                store.metrics.hegemony(o, heg_target),
            )
            for o in origins
        }
        stats = store.compact(shard_size=10_000)
        assert stats["merged"]
        assert stats["routing_files_after"] == 1
        assert stats["metric_files_after"] == 1
        assert stats["routing_files_before"] > 1
        # superseded files are gone from disk, not just the manifest
        assert len(list(target.glob("*.shard"))) == 1
        assert len(list(target.glob("*.mshard"))) == 1
        for origin in origins:
            live = propagate_compiled(graph, (Seed(asn=origin),))
            assert_states_equal(
                store.state_for(origin), live, f"(compacted {origin})"
            )
            rel, heg = before[origin]
            got_rel = store.metrics.reliance(
                origin, sorted(graph.nodes())[-1]
            )
            assert float(got_rel).hex() == float(rel).hex()
            got_heg = store.metrics.hegemony(origin, heg_target)
            if heg is None:
                assert got_heg is None
            else:
                assert float(got_heg).hex() == float(heg).hex()


def test_compact_refuses_to_carry_a_corrupt_record(tmp_path):
    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path, shard_size=16, workers=1)
    precompute_metric_shards(graph, tmp_path, shard_size=16)
    # the routing files merge first, so a finished merged file must go too
    shard = sorted(target.glob("metrics-*.mshard"))[-1]
    with MetricShardReader(shard) as reader:
        victim = reader.origins[-1]
        offset, nbytes, _crc = reader._index[victim]
    flip_bit(shard, offset + nbytes // 2)
    before = file_digests(target)
    with ShardStore.open(target, graph=graph, lease=True) as store:
        with pytest.raises(
            ShardError, match=rf"{re.escape(str(shard))}.*AS{victim}\b"
        ):
            store.compact(shard_size=10_000)
    assert file_digests(target) == before


def test_compact_interrupted_before_manifest_replace(tmp_path, monkeypatch):
    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path, shard_size=16, workers=1)
    precompute_metric_shards(graph, tmp_path, shard_size=16)
    before = file_digests(target)

    def crash(directory, manifest):
        raise OSError("simulated crash before the manifest is replaced")

    with ShardStore.open(target, graph=graph, lease=True) as store:
        records = record_bytes(store)
        with monkeypatch.context() as patch:
            patch.setattr(shards, "_write_manifest", crash)
            with pytest.raises(OSError, match="simulated crash"):
                store.compact(shard_size=10_000)
        assert file_digests(target) == before
        # the store still serves every record from the old manifest
        assert record_bytes(store) == records
        for origin in sample_origins(graph, 8, seed=41):
            live = propagate_compiled(graph, (Seed(asn=origin),))
            assert_states_equal(store.state_for(origin), live, origin)
        # and a rerun merges byte-identical records
        stats = store.compact(shard_size=10_000)
        assert stats["routing_files_after"] == stats["metric_files_after"] == 1
        assert record_bytes(store) == records


def test_compact_refuses_while_other_store_is_live(tmp_path):
    graph = netgen_graph("tiny")
    target = precompute_shards(graph, tmp_path, shard_size=4, workers=1)
    holder = ShardStore.open(target, graph=graph, lease=True)
    try:
        compactor = ShardStore.open(target, graph=graph, lease=True)
        try:
            with pytest.raises(ShardError, match="live lease"):
                compactor.compact()
        finally:
            compactor.close()
    finally:
        holder.close()
    # once the holder releases its lease the same compaction goes through
    with ShardStore.open(target, graph=graph, lease=True) as store:
        assert store.compact(shard_size=10_000)["merged"]


def test_gc_corpora_keep_remove_refuse(tmp_path):
    from repro.bgpsim.shards import gc_corpora

    g1 = netgen_graph("tiny")
    g2 = netgen_graph("tiny", seed=7)
    c1 = precompute_shards(g1, tmp_path, workers=1)
    c2 = precompute_shards(g2, tmp_path, workers=1)
    holder = ShardStore.open(c2, graph=g2, lease=True)
    try:
        removed, kept, refused = gc_corpora(tmp_path, [graph_digest(g1)])
        assert (removed, kept, refused) == ([], [c1], [c2])
    finally:
        holder.close()
    removed, kept, refused = gc_corpora(tmp_path, [graph_digest(g1)])
    assert (removed, kept, refused) == ([c2], [c1], [])
    assert c1.exists() and not c2.exists()
