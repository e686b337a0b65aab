"""Differential harness: the batch metric kernel ≡ the big-int loops and
the dict metrics.

:func:`repro.bgpsim.vectorized.build_metric_dag_vector` computes every
origin's reliance mass, tied-best-path counts and hegemony row of a
whole batch at once, level by level over (origin, node) cells.  Each row
must be **byte-identical** (``.tobytes()``) to two oracles on that
origin's own state:

* the big-int :class:`~repro.bgpsim.metrics_kernel.MetricDAG` loops,
  forced by flagging the state's width-1 sweep as unservable;
* the dict metrics of :mod:`repro.core` on ``propagate_reference``.

Inputs cover batch widths around the 64-origin mask word, duplicate
origins, target sets of one and several descendant-mask words, the
origin among its targets, unrouted targets, a shared ``excluded`` set,
trims on both sides of 0.5, narrow sub-chunks that straddle a mask word,
a batch where one slot's counts pass 2**53, and a leak state through the
width-1 path.
"""

from __future__ import annotations

from array import array
from types import SimpleNamespace

import pytest

from .conftest import netgen_graph, sample_origins
from .test_vectorized_engine import _provider_ladder
from repro.bgpsim import (
    Seed,
    leak_seed,
    propagate_batch,
    propagate_compiled,
    propagate_delta,
    propagate_reference,
)
from repro.bgpsim import metrics_kernel as mk
from repro.bgpsim import vectorized as vec
from repro.bgpsim.shards import (
    _metric_batch_task,
    _metric_row_exact,
    default_metric_targets,
)
from repro.core.hegemony import _hegemony_values
from repro.core.reliance import _path_counts_routes, _reliance_from_routes

TRIMS = (0.0, 0.1, 0.25, 0.49, 0.5, 0.75)


def _loop_row(state, origin, targets, trim):
    """The record the big-int loops compute for ``state``: its sweep is
    flagged unservable, so every kernel takes the ``MetricDAG`` path."""
    state._metric_sweep = SimpleNamespace(bad=(True,))
    return _metric_row_exact(state, origin, targets, trim)


def _dict_row(ref, origin, targets, trim):
    """The same record from the dict metrics on a reference state."""
    return (
        _reliance_from_routes(ref),
        _path_counts_routes(ref),
        _hegemony_values(ref, origin, targets, trim),
    )


def _node_vector(asns, values) -> bytes:
    """ASN-keyed floats as the node-indexed float64 bytes of a record."""
    return array("d", (float(values.get(a, 0.0)) for a in asns)).tobytes()


def _assert_rows(graph, origins, targets, trims=(0.1,), excluded=frozenset()):
    cg = graph.compile()
    batch = propagate_batch(graph, origins, excluded=excluded)
    for trim in trims:
        rows = vec.build_metric_dag_vector(batch, targets, trim)
        assert len(rows) == len(origins)
        for origin, row in zip(origins, rows):
            assert row is not None, origin
            reliance, counts, hegemony, routed = row
            seed = Seed(asn=origin)
            state = propagate_compiled(graph, seed, excluded=excluded)
            loop = _loop_row(state, origin, targets, trim)
            context = (origin, trim)
            assert reliance.tobytes() == loop[0].tobytes(), context
            assert counts.tobytes() == loop[1].tobytes(), context
            assert hegemony.tobytes() == loop[2].tobytes(), context
            assert routed == loop[3] and loop[4], context
            ref = propagate_reference(graph, seed, excluded=excluded)
            mass, paths, heg = _dict_row(ref, origin, targets, trim)
            assert reliance.tobytes() == _node_vector(cg.asns, mass), context
            assert counts.tobytes() == _node_vector(cg.asns, paths), context
            assert hegemony.tobytes() == heg.tobytes(), context


@pytest.fixture(scope="module")
def small():
    return netgen_graph("small", 7)


class TestBatchRows:
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    def test_batch_widths(self, small, width):
        origins = sample_origins(small, width, seed=width)
        targets = tuple(sample_origins(small, 16, seed=width + 1))
        _assert_rows(small, origins, targets)

    def test_duplicate_origins(self, small):
        origins = sample_origins(small, 5, seed=3)
        batch = origins + origins[::-1] + origins[:2]
        targets = tuple(sample_origins(small, 12, seed=4)) + (origins[0],)
        _assert_rows(small, batch, targets)

    @pytest.mark.parametrize("count", [1, 64, 65, 130])
    def test_descendant_mask_words(self, small, count):
        # 65 and 130 targets spill the descendant bitmask into a second
        # and a third uint64 word
        origins = sample_origins(small, 9, seed=count)
        targets = tuple(sample_origins(small, count, seed=count + 1))
        _assert_rows(small, origins, targets)

    def test_trims(self, small):
        origins = sample_origins(small, 12, seed=11)
        targets = tuple(sample_origins(small, 20, seed=12))
        _assert_rows(small, origins, targets, trims=TRIMS)

    def test_origin_unrouted_and_excluded_targets(self, small):
        nodes = sorted(small.nodes())
        stubs = [a for a in nodes if small.is_stub(a)]
        excluded = frozenset(sample_origins(small, 25, seed=21)) - set(stubs)
        origins = [a for a in sample_origins(small, 40, seed=22)
                   if a not in excluded][:20]
        # origins among the targets (NaN), excluded ASes (unrouted for
        # every origin) and stubs nobody routes through (zero columns)
        targets = (
            tuple(origins[:3]) + tuple(sorted(excluded)[:5]) + tuple(stubs[:4])
            + tuple(sample_origins(small, 10, seed=23))
        )
        _assert_rows(small, origins, targets, trims=(0.0, 0.1, 0.5),
                     excluded=excluded)

    def test_narrow_sub_chunks_straddle_the_mask_word(
        self, small, monkeypatch
    ):
        # a cell budget of seven origins per sub-chunk, as at paper scale:
        # sub-chunks then stop short at the 64-bit mask word boundary
        monkeypatch.setattr(vec, "_CELL_BUDGET", 7 * small.compile().n)
        origins = sample_origins(small, 70, seed=31)
        targets = tuple(sample_origins(small, 10, seed=32))
        _assert_rows(small, origins, targets, trims=(0.1, 0.75))

    def test_big_counts_leave_the_rest_of_the_batch_batched(self):
        # origin 1 sits under 56 ladder stages (2**55 tied paths at the
        # top); origins higher up the ladder stay under 2**53
        graph, origin = _provider_ladder(56)
        origins = (40, 41, origin, 60, 75)
        targets = (10, 11, 64, 65, 120, 121, 40)
        rows = vec.build_metric_dag_vector(
            propagate_batch(graph, origins), targets, 0.1
        )
        assert [row is None for row in rows] == [False, False, True, False,
                                                 False]
        records = _metric_batch_task(graph, origins, targets, 0.1)
        for o, row, record in zip(origins, rows, records):
            state = propagate_compiled(graph, Seed(asn=o))
            loop = _loop_row(state, o, targets, 0.1)
            assert [bytes(memoryview(x)) for x in record[:3]] == [
                x.tobytes() for x in loop[:3]
            ]
            assert record[3:] == loop[3:]
            assert record[4] == (row is not None)


class TestWidthOne:
    """Per-state consumers run width-1 sweeps of the same kernel."""

    def test_leak_state(self, small):
        nodes = sorted(small.nodes())
        origins = sample_origins(small, 6, seed=41)
        leakers = sample_origins(small, 6, seed=42)
        targets = tuple(sample_origins(small, 12, seed=43))
        checked = 0
        for origin, leaker in zip(origins, leakers):
            if origin == leaker:
                continue
            legit = Seed(asn=origin)
            baseline = propagate_compiled(small, legit)
            leak = leak_seed(small, origin, leaker)
            try:
                delta = propagate_delta(small, baseline, leak)
            except ValueError:
                continue  # outside the delta contract
            ref = propagate_reference(small, (legit, leak))
            row_targets = targets + (leaker, origin)
            for trim in (0.0, 0.1, 0.75):
                got = _hegemony_values(delta, origin, row_targets, trim)
                want = _hegemony_values(ref, origin, row_targets, trim)
                assert got.tobytes() == want.tobytes(), (origin, leaker)
            mass = mk.reliance_kernel(delta)
            assert _node_vector(nodes, mass) == _node_vector(
                nodes, _reliance_from_routes(ref)
            )
            assert mk.path_counts_kernel(delta) == _path_counts_routes(ref)
            checked += 1
        assert checked

    def test_row_origin_need_not_be_the_seed(self, small):
        # the sample set drops the row's origin wherever it sits in the
        # DAG, also below a target
        seed = Seed(asn=sample_origins(small, 1, seed=61)[0])
        state = propagate_compiled(small, seed)
        ref = propagate_reference(small, seed)
        # high-degree targets: most ASes route through one of them
        targets = default_metric_targets(small, 16)
        for origin in sample_origins(small, 15, seed=63):
            for trim in (0.0, 0.1, 0.75):
                got = _hegemony_values(state, origin, targets, trim)
                want = _hegemony_values(ref, origin, targets, trim)
                assert got.tobytes() == want.tobytes(), (origin, trim)

    def test_state_sweep_matches_batch_rows(self, small):
        origins = sample_origins(small, 8, seed=51)
        targets = tuple(sample_origins(small, 30, seed=52))
        batch = propagate_batch(small, origins)
        rows = vec.build_metric_dag_vector(batch, targets, 0.1)
        for bit, (origin, row) in enumerate(zip(origins, rows)):
            sweep = vec.state_sweep(batch.view_at(bit))
            assert sweep.hegemony_row(origin, targets, 0.1).tobytes() == (
                row[2].tobytes()
            )
            mass = sweep.reliance().copy()
            mass[sweep.seeds] = 0.0
            assert mass.tobytes() == row[0].tobytes()
