"""Shared-memory payload transport for the parallel sweeps.

Covers the :mod:`repro.bgpsim.shm` layer directly (arena packing,
attach/detach refcounting, cleanup, the platform probe that picks the
transport, the stats counters, payload wrap/restore round-trips) and
differentially: a parallel propagation sweep must be bit-for-bit
identical over shared memory and over the pickle path a failed probe
selects, and workers must actually attach segments rather than unpickle
copies.
"""

from __future__ import annotations

from array import array

import pytest

from .conftest import assert_states_equal, netgen_graph, sample_origins
from repro.bgpsim import (
    Seed,
    precompute_shards,
    propagate_compiled,
    propagate_many,
)
from repro.bgpsim import shm
from repro.bgpsim.compiled import CompiledGraph, CompiledRoutingState
from repro.bgpsim.shards import ShardReader, ShardStore, ShardWriter

pytestmark = pytest.mark.skipif(
    not shm.shm_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


def _graph_and_state(profile_name="tiny", seed=7):
    graph = netgen_graph(profile_name, seed)
    cg = graph.compile()
    origin = sorted(graph.nodes())[0]
    state = propagate_compiled(cg, (Seed(asn=origin),))
    return graph, cg, state


class TestArena:
    def test_pack_and_attach_round_trip(self):
        buffers = {
            "ints": array("i", [1, -2, 3]),
            "longs": array("q", [1 << 40, -5]),
            "raw": bytearray(b"\x00\x01\x02"),
        }
        with shm.ShmArena(buffers) as arena:
            views = arena.ref().attach()
            assert list(views["ints"]) == [1, -2, 3]
            assert list(views["longs"]) == [1 << 40, -5]
            assert bytes(views["raw"]) == b"\x00\x01\x02"
            arena.ref().detach()

    def test_entries_are_8_byte_aligned(self):
        buffers = {"a": bytearray(b"xyz"), "b": array("q", [7])}
        with shm.ShmArena(buffers) as arena:
            offsets = {name: off for name, _, off, _ in arena.entries}
            assert offsets["a"] == 0
            assert offsets["b"] == 8  # aligned past the 3-byte entry
            views = arena.ref().attach()
            assert views["b"][0] == 7
            arena.ref().detach()

    def test_attach_refcounts_and_reuses(self):
        shm.reset_stats()
        with shm.ShmArena({"v": array("i", [5])}) as arena:
            ref = arena.ref()
            first = ref.attach()
            second = ref.attach()
            assert first is second  # served from the per-process cache
            assert shm.stats()["attaches"] == 1
            assert shm.stats()["reuses"] == 1
            ref.detach()
            ref.detach()

    def test_close_is_idempotent_and_unlinks(self):
        arena = shm.ShmArena({"v": array("i", [1, 2])})
        name = arena.name
        arena.close()
        arena.close()  # second close is a no-op
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_stats_count_payload_bytes(self):
        shm.reset_stats()
        with shm.ShmArena({"v": array("q", range(10))}):
            assert shm.stats()["segments"] == 1
            assert shm.stats()["payload_bytes"] >= 80

    def test_ref_is_picklable(self):
        import pickle

        with shm.ShmArena({"v": array("i", [9, 8])}) as arena:
            ref = pickle.loads(pickle.dumps(arena.ref()))
            views = ref.attach()
            assert list(views["v"]) == [9, 8]
            ref.detach()


class TestResolveShm:
    def test_follows_the_platform_probe(self, monkeypatch):
        assert shm.resolve_shm() is True  # the module skips otherwise
        monkeypatch.setattr(shm, "_available", False)
        assert shm.resolve_shm() is False


class TestPayloadRoundTrip:
    def test_graph_round_trip(self):
        _, cg, _ = _graph_and_state()
        arenas: list[shm.ShmArena] = []
        try:
            wrapped = shm.share_payload(cg, arenas)
            assert isinstance(wrapped, shm.SharedGraph)
            restored = shm.restore_payload(wrapped)
            assert isinstance(restored, CompiledGraph)
            assert list(restored.asns) == list(cg.asns)
            assert bytes(memoryview(restored.provider_nbr)) == bytes(
                memoryview(cg.provider_nbr)
            )
            wrapped.ref.detach()
        finally:
            for arena in arenas:
                arena.close()

    def test_state_round_trip_preserves_routes(self, tmp_path):
        graph, _, state = _graph_and_state()

        def formats(s):
            return [memoryview(getattr(s, f)).format
                    for f in shm._STATE_FIELDS]

        origin = state.seeds[0].asn
        with ShardWriter(tmp_path / "one.shard", graph) as writer:
            writer.add(origin, state)
        with ShardReader(tmp_path / "one.shard") as reader:
            # a shard-backed state holds memoryview casts, not arrays
            for source in (state, reader.state_for(origin)):
                arenas: list[shm.ShmArena] = []
                try:
                    wrapped = shm.share_payload(source, arenas)
                    assert isinstance(wrapped, shm.SharedState)
                    restored = shm.restore_payload(wrapped)
                    assert isinstance(restored, CompiledRoutingState)
                    assert formats(restored) == formats(state)
                    assert_states_equal(state, restored, "(shm round trip)")
                    wrapped.ref.detach()
                finally:
                    for arena in arenas:
                        arena.close()

    def test_dict_payloads_recurse_one_level(self):
        _, cg, state = _graph_and_state()
        arenas: list[shm.ShmArena] = []
        try:
            shared = shm.share_payload(
                {"baseline": state, "engine": "compiled"}, arenas
            )
            assert isinstance(shared["baseline"], shm.SharedState)
            assert shared["engine"] == "compiled"
            restored = shm.restore_payload(shared)
            assert isinstance(restored["baseline"], CompiledRoutingState)
            shared["baseline"].ref.detach()
        finally:
            for arena in arenas:
                arena.close()

    def test_plain_objects_pass_through(self):
        arenas: list[shm.ShmArena] = []
        for obj in (42, "x", [1, 2], None):
            assert shm.share_payload(obj, arenas) is obj
            assert shm.restore_payload(obj) is obj
        assert shm.share_payload({}, arenas) == {}
        assert shm.restore_payload({"k": 1}) == {"k": 1}
        assert arenas == []

    def test_restored_state_pickles_concrete(self):
        # worker results are built over shm-backed views; pickling them
        # back to the parent must not try to pickle memoryviews
        import pickle

        _, _, state = _graph_and_state()
        arenas: list[shm.ShmArena] = []
        try:
            restored = shm.restore_payload(
                shm.share_payload(state, arenas)
            )
            clone = pickle.loads(pickle.dumps(restored))
            assert_states_equal(state, clone, "(pickle of shm state)")
        finally:
            for arena in arenas:
                arena.close()


def _worker_stats_task(graph, item, engine=None):
    del graph, item, engine
    return shm.stats()


class TestParallelTransport:
    def test_sweep_identical_shm_on_and_off(self, monkeypatch):
        # a failed platform probe is what selects the pickle path
        graph = netgen_graph("small", 20200901)
        origins = sample_origins(graph, 8, seed=3)

        def sweep():
            return list(
                propagate_many(
                    graph, origins, workers=2, engine="compiled"
                )
            )

        before = shm.stats()["segments"]
        with monkeypatch.context() as ctx:
            ctx.setattr(shm, "_available", False)
            plain = sweep()
        assert shm.stats()["segments"] == before  # pickled, not shared
        shared = sweep()
        assert shm.stats()["segments"] > before
        for origin, a, b in zip(origins, plain, shared):
            assert_states_equal(a, b, f"(shm transport, origin {origin})")

    def test_workers_attach_segments(self):
        from repro.bgpsim.parallel import graph_map

        graph = netgen_graph("tiny", 7)
        worker_stats = list(
            graph_map(
                graph,
                _worker_stats_task,
                range(2),
                workers=2,
                engine="compiled",
            )
        )
        # each worker mapped at least the graph segment; under ``fork``
        # the other counters are inherited from the parent, so only the
        # attach count is asserted
        assert all(s["attaches"] >= 1 for s in worker_stats)

    def test_leak_sweep_over_shard_backed_baseline(self, tmp_path):
        # a timeline's baselines come off a shard, ship to the workers
        # through an arena, and must arrive with their element formats
        # intact: every leak, hijack and link event answers as in-process
        from repro.experiments.timeline import ScenarioRunner, parse_events

        graph = netgen_graph("tiny")
        target = precompute_shards(graph, tmp_path, workers=1)
        nodes = sorted(graph.nodes())
        origins, leakers = nodes[:4], nodes[4:10]
        stub = next(a for a in nodes[10:] if graph.is_stub(a))
        spec = ",".join(
            [f"leak:{leaker}" for leaker in leakers]
            + [f"hijack:{nodes[11]}",
               f"down:{min(graph.providers(stub))}-{stub}"]
        )
        results = {}
        with ShardStore.open(target, graph=graph) as store:
            for workers in (1, 2):
                runner = ScenarioRunner(
                    graph.copy(), origins, targets=nodes[:2],
                    workers=workers, shards=store,
                )
                results[workers] = runner.run(parse_events(spec))
                assert runner.cache.stats().disk_hits == len(origins)
        assert any(r.captured for r in results[1].records)
        assert results[2] == results[1]

    def test_no_segments_leak_after_sweep(self):
        graph = netgen_graph("tiny", 7)
        origins = sample_origins(graph, 4, seed=1)
        before = set(shm._ARENAS)
        list(
            propagate_many(graph, origins, workers=2, engine="compiled")
        )
        assert set(shm._ARENAS) == before  # every arena closed
