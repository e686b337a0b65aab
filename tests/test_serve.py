"""The query service, unit (no sockets) and end-to-end over HTTP.

Every served answer is diffed against values recomputed live —
``propagate`` / ``reliance_from_state`` / ``local_hegemony`` with no
shared cache — so the serve stack can never drift from the engine.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from .conftest import netgen_graph, sample_origins
from repro.bgpsim import RoutingStateCache, Seed, precompute_shards, propagate
from repro.bgpsim.shards import ShardStore
from repro.core.hegemony import local_hegemony
from repro.core.reliance import reliance_from_state
from repro.serve import (
    QueryService,
    smoke_check,
    start_server_thread,
)


@pytest.fixture(scope="module")
def tiny():
    graph = netgen_graph("tiny")
    nodes = sorted(graph.nodes())
    return graph, nodes


# ---------------------------------------------------------------------------
# QueryService unit (no sockets)
# ---------------------------------------------------------------------------


def test_endpoints_match_live_engine(tiny):
    graph, nodes = tiny
    service = QueryService(graph)
    origin, target = nodes[2], nodes[-3]
    live = propagate(graph, Seed(asn=origin))

    status, got = service.answer(
        "/reachable", {"origin": str(origin), "target": str(target)}
    )
    assert status == 200
    assert got["reachable"] == live.has_route(target)
    live_class = live.route_class(target)
    assert got["route_class"] == (
        None if live_class is None else live_class.name
    )
    assert got["path_length"] == live.path_length(target)

    status, got = service.answer(
        "/path_length", {"origin": str(origin), "target": str(target)}
    )
    assert (status, got["path_length"]) == (200, live.path_length(target))

    status, got = service.answer(
        "/reliance", {"origin": str(origin), "target": str(target)}
    )
    assert status == 200
    assert got["reliance"] == reliance_from_state(live).get(target, 0.0)

    status, got = service.answer(
        "/hegemony", {"origin": str(origin), "target": str(target)}
    )
    assert status == 200
    assert got["hegemony"] == local_hegemony(
        graph, origin, target, cache=RoutingStateCache(graph)
    )

    status, got = service.answer(
        "/rib", {"origin": str(origin), "asn": str(target)}
    )
    assert status == 200
    node = live.route(target)
    if node is None:
        assert got["route"] is None
    else:
        assert got["route"] == {
            "route_class": node.route_class.name,
            "length": node.length,
            "parents": sorted(node.parents),
            "origins": sorted(node.origins),
        }


def test_error_statuses(tiny):
    graph, nodes = tiny
    service = QueryService(graph)
    origin = str(nodes[0])
    assert service.answer("/reachable", {"origin": origin})[0] == 400
    assert (
        service.answer("/reachable", {"origin": "x", "target": origin})[0]
        == 400
    )
    assert (
        service.answer(
            "/reachable", {"origin": "999999999", "target": origin}
        )[0]
        == 404
    )
    status, payload = service.answer("/nope", {})
    assert status == 404 and "/reachable" in payload["endpoints"]


def test_stats_endpoint_reports_tiers(tiny, tmp_path):
    graph, nodes = tiny
    target = precompute_shards(graph, tmp_path)
    with ShardStore.open(target, graph=graph) as store:
        service = QueryService(graph, shards=store)
        service.answer(
            "/path_length",
            {"origin": str(nodes[0]), "target": str(nodes[1])},
        )
        status, stats = service.answer("/stats", {})
        assert status == 200
        assert stats["tiers"] == {
            "lru": 0,
            "metric": 0,
            "disk": 1,
            "computed": 0,
        }
        assert stats["shards"]["origins"] == len(graph)
        assert stats["requests"] == 2
        assert stats["pid"] == os.getpid()
        hist = stats["latency"]["/path_length"]
        assert hist["count"] == 1
        assert hist["p50_us"] is not None and hist["p99_us"] >= hist["p50_us"]


# ---------------------------------------------------------------------------
# HTTP end-to-end
# ---------------------------------------------------------------------------


def test_http_round_trip_and_keep_alive(tiny):
    graph, nodes = tiny
    service = QueryService(graph)
    origin, target = nodes[1], nodes[-1]
    live = propagate(graph, Seed(asn=origin))
    with start_server_thread(service) as handle:
        # several requests over ONE keep-alive connection
        conn = http.client.HTTPConnection(handle.host, handle.port)
        try:
            for _ in range(3):
                conn.request(
                    "GET", f"/path_length?origin={origin}&target={target}"
                )
                response = conn.getresponse()
                assert response.status == 200
                got = json.loads(response.read())
                assert got["path_length"] == live.path_length(target)
            conn.request("POST", "/reachable")
            assert conn.getresponse().status == 405
        finally:
            conn.close()
        # error bodies survive the HTTP layer
        try:
            urllib.request.urlopen(
                f"{handle.base_url}/reachable?origin=999999999"
                f"&target={target}"
            )
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
            assert "not in graph" in json.loads(exc.read())["error"]
        else:  # pragma: no cover
            pytest.fail("expected a 404")


def test_concurrent_requests_batch_cold_origins(tiny):
    graph, nodes = tiny
    service = QueryService(graph)
    origins = sample_origins(graph, 12, seed=13)
    target = nodes[0]
    results: dict[int, int | None] = {}
    errors: list[Exception] = []
    with start_server_thread(service, window=0.02) as handle:

        def query(origin: int) -> None:
            try:
                with urllib.request.urlopen(
                    f"{handle.base_url}/path_length"
                    f"?origin={origin}&target={target}"
                ) as response:
                    results[origin] = json.loads(response.read())[
                        "path_length"
                    ]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=query, args=(o,)) for o in origins
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher = handle.batcher
    assert not errors
    for origin in origins:
        live = propagate(graph, Seed(asn=origin))
        assert results[origin] == live.path_length(target)
    # the cold burst coalesced into fewer sweeps than requests
    assert batcher.batched_origins >= 1
    assert batcher.batches <= len(origins)


def test_smoke_check_passes_with_and_without_shards(tiny, tmp_path):
    graph, _nodes = tiny
    assert smoke_check(QueryService(graph)) == []
    target = precompute_shards(graph, tmp_path)
    with ShardStore.open(target, graph=graph) as store:
        assert smoke_check(QueryService(graph, shards=store)) == []
