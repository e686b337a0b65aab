"""The benchmark's three workloads, each run in a fresh child process.

``perfbench/run.py`` starts this file with every ``REPRO_*`` variable
removed and ``PYTHONPATH=src``; it writes one JSON result to ``--out``:

    python3 perfbench/workloads.py --workload report --seed 0 \
        --seconds 10 --trace 0 --out result.json

``report``
    ``build_context`` for ``small`` and its 2015 companion, then
    ``run_all`` with its defaults and ``render_all`` — one serial caller,
    like ``repro experiments small``.
``precompute``
    the routing pass then the metric pass over every origin of a ``mid``
    topology generated from the seed — ``repro precompute --metrics``.
``serve``
    ``repro serve`` as one process over a ``mid`` corpus with metric
    shards, driven open loop over two keep-alive connections.

Scenario seeds are the profiles' defaults plus ``--seed``, so seed 0
reproduces the goldens of ``tests/test_runner_golden.py``.  Every check
of the program's outputs runs outside the timed windows.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

import loadgen
import measure
import spans

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"

#: the profiles' default scenario seeds; the workload seed is added
SEED_2020 = 20200901
SEED_2015 = 20150901

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = {"report": 2, "precompute": 9, "serve": 3}

#: origins whose routing and metric records are checked per precompute run
PRECOMPUTE_CHECKS = 8

#: serve: the fixed offered rate (requests/s) for p50/p99, a tenth of
#: saturation (2,200-3,000 req/s on 2 CPUs)
FIXED_RATE = 250.0
#: serve: requests per fixed-rate leg: its p99 keeps ten samples beyond
#: it with up to 100 requests sent late; the legs fill 2 x --seconds (a
#: traced run, whose figures are per-layer, runs two)
LEG_REQUESTS = 1100
TRACED_LEGS = 2
#: serve: while every leg so far sent over 1% of its requests late (a
#: host stall), up to EXTRA_LEGS more legs run
EXTRA_LEGS = 4
#: serve: closed-loop warm-up requests (untimed)
WARMUP_REQUESTS = 2000
#: serve: requests per ladder rung (a p99 with ten beyond)
RUNG_REQUESTS = 1000
#: serve: served answers checked against an in-process service
SERVE_CHECKS = 300
#: serve: the generator, not the server, set a leg's pace when it kept
#: this share of a core busy (its threads share one interpreter lock)
GENERATOR_CPU_SHARE = 0.8

#: ``run_all`` result keys, in run order
RUN_ALL_KEYS = tuple(spans.EXPERIMENTS)

MB = 1e6
clock = time.perf_counter


class InvalidRun(Exception):
    """The load generator, not the server, fell behind."""


class Outcome:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str, count: int = 1) -> None:
        """Count ``count`` failed operations unless ``ok``."""
        if not ok:
            self.failed += count
            self.reasons.append(reason)


def goldens() -> dict[str, Any]:
    """The ``GOLDEN_*`` constants of ``tests/test_runner_golden.py`` (the
    seed-0 report), read without importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_runner_golden.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.startswith("GOLDEN_")
    }


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every ``*.py`` file."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(graph_size: Optional[int]) -> dict[str, Any]:
    """The host, interpreter, code and resolved performance knobs."""
    from repro.bgpsim.engine import resolve_engine, resolve_stream
    from repro.bgpsim.multiorigin import resolve_batch
    from repro.bgpsim.shm import resolve_shm
    from repro.bgpsim.vectorized import resolve_vector

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # ROOT sits inside some other repository
    except (OSError, ValueError, subprocess.SubprocessError):
        commit = None  # a plain checkout: the source digest identifies it
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_digest": tree_digest(ROOT / "src")[:16],
        "engine": resolve_engine(),
        "batch": resolve_batch(),
        "vector": resolve_vector(),
        "shm": resolve_shm(),
        "stream": resolve_stream(None, graph_size),
    }


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(
    recorded: list, counters: dict[str, float], wall: float
) -> dict[str, float]:
    """Per-layer figures from one traced window's spans."""
    totals = spans.name_totals(recorded)
    own = spans.self_times(recorded)
    out: dict[str, float] = {}
    for name, (calls, seconds) in totals.items():
        out[f"{name}_s"] = seconds
        out[f"{name}.calls"] = float(calls)
    out.update(counters)
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
        out[f"{layer}.share"] = own.get(layer, 0.0) / wall if wall else 0.0
    out["other.self_s"] = max(wall - spans.top_level_time(recorded), 0.0)
    out["other.share"] = out["other.self_s"] / wall if wall else 0.0
    return out


def named_layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json``, from
    :func:`layer_metrics` (0 where the layer did no work)."""
    get = raw.get
    return {
        **{f"experiments.{key}_s": get(f"experiments.{key}_s", 0.0)
           for key in RUN_ALL_KEYS},
        "netgen.build_s": get("netgen.build_s", 0.0),
        "traceroute.campaign_s": get("traceroute.campaign_s", 0.0),
        "traceroute.traces": get("traceroute.traces", 0.0),
        "neighbors.infer_s": get("neighbors.infer_s", 0.0),
        "neighbors.infer_calls": get("neighbors.infer.calls", 0.0),
        "topology.augment_s": get("topology.augment_s", 0.0),
        "geo.coverage_s": get("geo.coverage_s", 0.0),
        "leaks.simulate_s": get("leaks.simulate_s", 0.0),
        "leaks.count": get("leaks.simulate.calls", 0.0),
        "bgpsim.propagate_s": get("bgpsim.propagate_s", 0.0),
        "bgpsim.propagate_calls": get("bgpsim.propagate.calls", 0.0),
        "topology.load_s": get("topology.load_s", 0.0),
        "topology.compile_s": get("topology.compile_s", 0.0),
        "bgpsim.propagate_batch_s": get("bgpsim.propagate_batch_s", 0.0),
        "bgpsim.origins_propagated": get("bgpsim.origins_propagated", 0.0),
        "bgpsim.view_build_s": get("bgpsim.view_build_s", 0.0),
        "bgpsim.views_built": get("bgpsim.view_build.calls", 0.0),
        "kernel.dag_s": get("kernel.dag_s", 0.0),
        "kernel.reliance_s": get("kernel.reliance_s", 0.0),
        "kernel.hegemony_rows_s": get("kernel.hegemony_rows_s", 0.0),
        "kernel.hegemony_fallback_s": get("kernel.hegemony_fallback_s", 0.0),
        "shards.write_s": get("shards.write_s", 0.0)
        + get("shards.seal_s", 0.0),
        "shards.records": get("shards.write.calls", 0.0),
        "shards.bytes_written": get("shards.bytes_written", 0.0),
        "shards.reads": get("shards.read.calls", 0.0),
        **{f"{layer}.self_s": raw[f"{layer}.self_s"]
           for layer in spans.LAYERS + ("other",)},
        **{f"{layer}.share": raw[f"{layer}.share"]
           for layer in spans.LAYERS + ("other",)},
        # measured by the serve and precompute workloads only
        **dict.fromkeys(SERVE_LAYER_NAMES, 0.0),
        "bgpsim.useful_work_ratio": 0.0,
    }


#: per-layer figures read off the server's /stats and the client
SERVE_LAYER_NAMES = (
    *(f"serve.{e.strip('/')}.answer_{q}_us"
      for e in loadgen.ENDPOINTS for q in ("p50", "p99")),
    "serve.transport_p50_us", "serve.metric_hits", "serve.metric_misses",
    "serve.fast_path_share", "serve.server_cpu_s", "loadgen.cpu_s",
    "loadgen.lateness_p99_ms", "cache.lru_hits", "cache.disk_hits",
    "cache.computed", "cache.evictions", "cache.hit_rate",
)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def report(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from repro.core.metrics import reachability_from_state
    from repro.bgpsim.engine import propagate_reference
    from repro.bgpsim.routes import Seed
    from repro.experiments import runner
    from repro.experiments.context import build_context
    from repro.netgen import companion_2015

    def setup():
        return (
            build_context("small", seed=SEED_2020 + seed),
            build_context(companion_2015("small"), seed=SEED_2015 + seed),
        )

    def job(contexts):
        started = clock()
        results = runner.run_all(*contexts)
        text = runner.render_all(results)
        return clock() - started, results, text

    outcome = Outcome()
    if trace:
        started = clock()
        job(setup())
        plain_wall = clock() - started
        recorder = spans.Recorder()
        recorder.install()
        try:
            started = clock()
            contexts = setup()
            _, results, text = job(contexts)
            traced_wall = clock() - started
        finally:
            recorder.uninstall()
        layers = named_layer_metrics(
            layer_metrics(recorder.spans, recorder.counters, traced_wall)
        )
        layers["trace_overhead"] = traced_wall / plain_wall
        metrics = layers
        walls = [traced_wall]
    else:
        setups = []
        for _ in range(SETUP_REPEATS["report"]):
            contexts = None  # let the previous pair go before rebuilding
            started = clock()
            contexts = setup()
            setups.append(clock() - started)
        walls, texts = [], []
        deadline = clock() + seconds
        while True:
            wall, results, text = job(contexts)
            walls.append(wall)
            texts.append(text)
            if clock() >= deadline:
                break
        for other in texts[1:]:
            outcome.check(other == texts[0], "report differs between "
                          "iterations of one run")
        metrics = {}

    # -- checks (untimed) -------------------------------------------------
    outcome.attempted = len(RUN_ALL_KEYS) + 1  # every experiment + render
    ctx, ctx15 = contexts
    missing = [key for key in RUN_ALL_KEYS if key not in results]
    outcome.check(not missing, f"run_all lacks {missing}")
    table1, fig2 = results["table1"], results["fig2"]
    if seed == 0:
        golden = goldens()
        top10 = [(e.rank, e.asn, e.reachability)
                 for e in table1.entries_2020[:10]]
        outcome.check(top10 == golden["GOLDEN_TABLE1_TOP10"],
                      f"table1 top-10 {top10} != golden")
        outcome.check(
            table1.cloud_ranks_2020 == golden["GOLDEN_CLOUD_RANKS_2020"],
            f"2020 cloud ranks {table1.cloud_ranks_2020}")
        outcome.check(
            table1.cloud_ranks_2015 == golden["GOLDEN_CLOUD_RANKS_2015"],
            f"2015 cloud ranks {table1.cloud_ranks_2015}")
        clouds = {r.name: (r.report.full, r.report.provider_free,
                           r.report.tier1_free, r.report.hierarchy_free)
                  for r in fig2.cloud_rows()}
        outcome.check(clouds == golden["GOLDEN_FIG2_CLOUDS"],
                      f"fig2 clouds {clouds}")
        outcome.check(fig2.total_ases == golden["GOLDEN_FIG2_TOTAL"],
                      f"fig2 total {fig2.total_ases}")
    # any seed: the cloud reachabilities must match the reference BGP
    # engine run over the same exclusions (route existence is set by the
    # export rules alone, so the counts agree)
    graph, tiers = ctx.graph, ctx.tiers
    for row in fig2.cloud_rows():
        asn = row.asn
        providers = graph.providers(asn)
        exclusions = (
            frozenset(),
            providers,
            (providers | tiers.tier1) - {asn},
            (providers | tiers.hierarchy) - {asn},
        )
        want = tuple(
            reachability_from_state(
                propagate_reference(graph, Seed(asn=asn), excluded=ex)
            )
            for ex in exclusions
        )
        got = (row.report.full, row.report.provider_free,
               row.report.tier1_free, row.report.hierarchy_free)
        outcome.check(got == want, f"fig2 {row.name}: {got} != reference "
                      f"engine {want}")
    # the rendered report is byte-identical across runs of one source tree
    digest = hashlib.sha256(text.encode()).hexdigest()
    tree = tree_digest(ROOT / "src")[:16]
    pinned = WORK / "digests" / f"report-{tree}-seed{seed}.sha256"
    pinned.parent.mkdir(parents=True, exist_ok=True)
    if pinned.exists():
        outcome.check(pinned.read_text().strip() == digest,
                      "rendered report differs from an earlier run's")
    else:
        pinned.write_text(digest + "\n")
    report_path = WORK / f"report-seed{seed}.txt"
    report_path.write_text(text, encoding="utf-8")

    if not trace:
        wall = measure.median(walls)
        metrics = {
            "setup_s": measure.median(setups),
            "wall_s": wall,
            "origins_per_s": len(ctx.graph) / wall,
            "corpus_mb": report_path.stat().st_size / MB,
            "p50_ms": measure.percentile(walls, 0.5) * 1e3,
            "p99_ms": measure.percentile(walls, 0.99) * 1e3,
            "max_qps": len(RUN_ALL_KEYS) / wall,
            "peak_rss_mb": own_peak_rss_mb(),
        }
    return {
        "metrics": metrics,
        "outcome": outcome,
        "graph_size": len(ctx.graph),
        "detail": {"iterations": len(walls), "report_sha256": digest},
    }


# ---------------------------------------------------------------------------
# precompute
# ---------------------------------------------------------------------------


def precompute(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from repro.bgpsim.shards import (
        ShardStore,
        precompute_metric_shards,
        precompute_shards,
    )
    from repro.netgen import build_scenario, profile
    from repro.topology import caida, dump_graph

    base = WORK / f"precompute-seed{seed}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    topo = base / "topo.as-rel2.txt"
    # the generated input: the program receives only this file
    dump_graph(build_scenario(profile("mid", seed=SEED_2020 + seed)).graph,
               topo)

    def setup():
        graph = caida.load_graph(topo)
        graph.compile()
        return graph

    def job(graph, corpus: Path):
        """Both passes into an empty corpus; returns (wall, routing)."""
        shutil.rmtree(corpus, ignore_errors=True)
        started = clock()
        precompute_shards(graph, corpus)
        routing = clock() - started
        precompute_metric_shards(graph, corpus)
        return clock() - started, routing

    outcome = Outcome()
    corpus = base / "corpus"
    if trace:
        started = clock()
        graph = setup()
        job(graph, corpus)
        plain_wall = clock() - started
        recorder = spans.Recorder()
        recorder.install()
        try:
            started = clock()
            graph = setup()
            job(graph, corpus)
            traced_wall = clock() - started
        finally:
            recorder.uninstall()
        raw = layer_metrics(recorder.spans, recorder.counters, traced_wall)
        metrics = named_layer_metrics(raw)
        metrics["trace_overhead"] = traced_wall / plain_wall
        walls = [traced_wall]
    else:
        setups = []
        for _ in range(SETUP_REPEATS["precompute"]):
            started = clock()
            graph = setup()
            setups.append(clock() - started)
        walls, routings = [], []
        deadline = clock() + seconds
        while True:
            wall, routing = job(graph, corpus)
            walls.append(wall)
            routings.append(routing)
            if clock() >= deadline:
                break

    # -- checks (untimed) -------------------------------------------------
    nodes = sorted(graph.nodes())
    outcome.attempted = 2 * len(nodes)  # one routing + one metric record each
    corpus_bytes = dir_bytes(corpus)
    with ShardStore.open(corpus, graph=graph) as store:
        metric_store = store.metrics
        outcome.check(len(store) == len(nodes),
                      f"routing shards hold {len(store)}/{len(nodes)} origins",
                      len(nodes) - len(store))
        covered = 0 if metric_store is None else len(metric_store)
        outcome.check(covered == len(nodes),
                      f"metric shards hold {covered}/{len(nodes)} origins",
                      len(nodes) - covered)
        if metric_store is not None:
            sample = random.Random(seed).sample(nodes, PRECOMPUTE_CHECKS)
            for origin in sample:
                check_precomputed(graph, nodes, store, metric_store, origin,
                                  outcome)
    if trace:
        metrics["bgpsim.useful_work_ratio"] = (
            len(nodes) / metrics["bgpsim.origins_propagated"]
            if metrics["bgpsim.origins_propagated"] else 0.0
        )
    else:
        wall = measure.median(walls)
        metrics = {
            "setup_s": measure.median(setups),
            "wall_s": wall,
            "origins_per_s": len(nodes) / wall,
            "corpus_mb": corpus_bytes / MB,
            "p50_ms": measure.percentile(walls, 0.5) * 1e3,
            "p99_ms": measure.percentile(walls, 0.99) * 1e3,
            "max_qps": 2 * len(nodes) / wall,
            "peak_rss_mb": own_peak_rss_mb(),
        }
    shutil.rmtree(corpus, ignore_errors=True)
    return {
        "metrics": metrics,
        "outcome": outcome,
        "graph_size": len(nodes),
        "detail": {
            "iterations": len(walls),
            "routing_pass_s": None if trace else measure.median(routings),
            "corpus_bytes": corpus_bytes,
        },
    }


def check_precomputed(graph, nodes, store, metric_store, origin, outcome):
    """One origin's routing record against ``propagate_reference`` and
    its metric record against the dict metrics on that state."""
    from repro.bgpsim.engine import propagate_reference
    from repro.bgpsim.routes import Seed
    from repro.core.hegemony import _hegemony_values
    from repro.core.reliance import path_counts, reliance_from_state

    reference = propagate_reference(graph, Seed(asn=origin))
    state = store.state_for(origin)
    routes = reference.routes
    for asn in nodes:
        want, got = routes.get(asn), state.route(asn)
        same = (want is None) == (got is None) and (
            want is None or (
                want.route_class == got.route_class
                and want.length == got.length
                and set(want.parents) == set(got.parents)
                and set(want.origins) == set(got.origins)
            )
        )
        if not same:
            outcome.check(False, f"routing record AS{origin}: AS{asn} "
                          "differs from propagate_reference")
            break
    mass = reliance_from_state(reference)
    rows_ok = all(
        float(metric_store.reliance(origin, t)).hex()
        == float(mass.get(t, 0.0)).hex()
        for t in nodes
    )
    hegemony = _hegemony_values(reference, origin, metric_store.targets,
                                metric_store.trim)
    for target, want in zip(metric_store.targets, hegemony):
        got = metric_store.hegemony(origin, target)
        if target == origin:
            rows_ok &= got is None and math.isnan(want)
        else:
            rows_ok &= got is not None and got.hex() == want.hex()
    rows_ok &= metric_store.path_counts(origin) == path_counts(reference)
    outcome.check(rows_ok, f"metric record AS{origin} differs from the "
                  "dict metrics")


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def ensure_serve_corpus() -> tuple[Path, Path]:
    """The ``mid`` topology and its routing + metric corpus, built by the
    code under test (``repro generate`` and ``repro precompute
    --metrics``) once per source tree and reused by later runs of the
    same tree only."""
    cache = WORK / "serve-corpus"
    key = tree_digest(ROOT / "src")[:16]
    home = cache / key
    if (home / "done").exists():
        return home / "topo.as-rel2.txt", home / "corpus"
    shutil.rmtree(cache, ignore_errors=True)  # corpora of other trees
    building = cache / f"{key}.building"
    building.mkdir(parents=True)
    topo = building / "topo.as-rel2.txt"
    for argv in (
        ["generate", "mid", "-o", str(topo), "--seed", str(SEED_2020)],
        ["precompute", str(topo), "-o", str(building / "corpus"),
         "--metrics", "-q"],
    ):
        subprocess.run([sys.executable, "-m", "repro.cli", *argv], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=600)
    (building / "done").write_text("ok\n")
    building.rename(home)
    return home / "topo.as-rel2.txt", home / "corpus"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    conn = loadgen.HttpConnection("127.0.0.1", port, timeout)
    try:
        return conn.get(loadgen.encode(path))
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process: spawn, wait for /health, stop."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.port = free_port()
        self.log = open(log, "ab")
        started = clock()
        self.proc = subprocess.Popen(
            [*argv, "--port", str(self.port)], cwd=ROOT,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = started + 60
        while True:
            if self.proc.poll() is not None:
                self.log.close()
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}; see {log}")
            try:
                if http_get(self.port, "/health", timeout=2)[0] == 200:
                    break
            except OSError:
                pass
            if clock() > deadline:
                self.stop()
                raise RuntimeError("repro serve never answered /health")
            time.sleep(0.005)
        self.setup_s = clock() - started

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def cpu_seconds(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
        raise RuntimeError("no VmHWM in /proc status")

    def stats(self) -> dict[str, Any]:
        status, body = http_get(self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.log.close()


def canonical(value: Any) -> Any:
    """JSON payload with every float spelled exactly (``float.hex``)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def serve(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from urllib.parse import parse_qs, urlsplit

    from repro.bgpsim.shards import ShardStore
    from repro.serve import QueryService
    from repro.topology import load_graph

    topo, corpus = ensure_serve_corpus()
    graph = load_graph(topo)
    nodes = sorted(graph.nodes())
    with ShardStore.open(corpus, graph=graph) as store:
        targets = tuple(store.metrics.targets)
    corpus_bytes = dir_bytes(corpus)
    serve_argv = [sys.executable, "-m", "repro.cli", "serve", str(topo),
                  "--shards", str(corpus)]
    rng = random.Random(seed)
    warm_paths = loadgen.zipf_mix(nodes, targets, WARMUP_REQUESTS, rng)
    planned = (TRACED_LEGS if trace else
               max(1, math.ceil(2 * seconds * FIXED_RATE / LEG_REQUESTS)))
    legs = planned + (0 if trace else EXTRA_LEGS)
    leg_paths = [loadgen.zipf_mix(nodes, targets, LEG_REQUESTS, rng)
                 for _ in range(legs)]
    keep = [frozenset(rng.sample(range(LEG_REQUESTS), SERVE_CHECKS // planned))
            for _ in range(legs)]
    outcome = Outcome()
    log = WORK / "serve.log"  # every server of this run appends here
    log.unlink(missing_ok=True)
    served: dict[tuple[int, int], bytes] = {}
    checked: set[tuple[int, int]] = set()

    def warm(server: Server) -> float:
        connect, send = loadgen.http_sender("127.0.0.1", server.port)
        elapsed, failed = loadgen.closed_loop(
            connect, send, [loadgen.encode(p) for p in warm_paths])
        outcome.attempted += len(warm_paths)
        outcome.check(not failed, f"{failed} warm-up requests failed",
                      failed)
        return len(warm_paths) / elapsed

    def fixed_rate(server: Server):
        """The fixed-rate legs; returns their summaries, the outcomes of
        all of them, and the server's and generator's CPU seconds."""
        connect, send = loadgen.http_sender("127.0.0.1", server.port)
        summaries, everything = [], []
        cpu0, gen0 = server.cpu_seconds(), time.process_time()
        for k, paths in enumerate(leg_paths):
            if k >= planned and any(
                    leg.lateness_p99_s <= loadgen.ON_TIME_S
                    for leg in summaries):
                break  # a quiet leg exists: no extra legs
            outcomes, leg = timed_leg(
                connect, send, [loadgen.encode(p) for p in paths],
                FIXED_RATE, keep[k])
            outcome.attempted += leg.count
            outcome.check(not leg.failed, f"{leg.failed} fixed-rate requests "
                          "failed (non-200 or timeout)", leg.failed)
            served.update(((k, i), outcomes[i].body) for i in keep[k]
                          if outcomes[i].status == 200)
            checked.update((k, i) for i in keep[k])
            summaries.append(leg)
            everything.extend(outcomes)
        return (summaries, everything, server.cpu_seconds() - cpu0,
                time.process_time() - gen0)

    detail: dict[str, Any] = {}
    if trace:
        server = Server(serve_argv, log)
        try:
            warm(server)
            legs_plain, outcomes, cpu_plain, gen_cpu = fixed_rate(server)
            stats = server.stats()
        finally:
            server.stop()
        span_file = WORK / "serve-spans.jsonl"
        span_file.unlink(missing_ok=True)
        traced_argv = [sys.executable,
                       str(Path(__file__).with_name("serve_traced.py")),
                       str(span_file), *serve_argv[3:]]
        server = Server(traced_argv, log)
        started = clock()
        try:
            warm(server)
            _, _, cpu_traced, _ = fixed_rate(server)
        finally:
            server.stop()
            traced_wall = clock() - started
        recorded, counters = spans.load(str(span_file))
        metrics = named_layer_metrics(
            layer_metrics(recorded, counters, traced_wall))
        metrics["trace_overhead"] = cpu_traced / cpu_plain
        metrics.update(serve_layer_metrics(stats, outcomes, legs_plain,
                                           cpu_plain, gen_cpu))
    else:
        setups = []
        for k in range(SETUP_REPEATS["serve"]):
            server = Server(serve_argv, log)
            setups.append(server.setup_s)
            if k < SETUP_REPEATS["serve"] - 1:
                server.stop()
        try:
            capacity = warm(server)
            summaries, _, cpu, gen_cpu = fixed_rate(server)
            best, rungs = ladder(server, nodes, targets, rng, capacity,
                                 outcome)
            peak = server.peak_rss_mb()
        finally:
            server.stop()
        # host stalls only ever add latency and hit whole legs, so the
        # quietest leg measures the server; requests the generator sent
        # late timed the generator and are left out
        on_time = [leg.on_time for leg in summaries
                   if measure.supports(len(leg.on_time), 0.99)]
        if not on_time:  # no leg kept enough: pool them all
            on_time = [[x for leg in summaries for x in leg.on_time]]
        metrics = {
            "setup_s": measure.median(setups),
            "wall_s": measure.median([leg.wall_s for leg in summaries]),
            "origins_per_s": measure.median(
                [leg.achieved_rate for leg in summaries]),
            "corpus_mb": corpus_bytes / MB,
            "p50_ms": min(measure.median(v) for v in on_time) * 1e3,
            "p99_ms": min(measure.percentile(v, 0.99) for v in on_time)
            * 1e3,
            "max_qps": best,
            "peak_rss_mb": peak,
        }
        detail.update(
            legs=[{"p50_ms": leg.p50_s * 1e3, "p99_ms": leg.p99_s * 1e3,
                   "lateness_p99_ms": leg.lateness_p99_s * 1e3,
                   "sent_late": leg.count - len(leg.on_time)}
                  for leg in summaries],
            rungs=rungs,
            warmup_closed_loop_qps=capacity,
            server_cpu_s=cpu,
            generator_cpu_s=gen_cpu,
        )

    # -- checks (untimed): served answers vs an in-process service that
    # has no shards, so every expected answer comes from live propagation
    reference = QueryService(graph)
    for (k, i), body in sorted(served.items()):
        url = urlsplit(leg_paths[k][i])
        params = {key: v[-1] for key, v in parse_qs(url.query).items()}
        status, want = reference.answer(url.path, params)
        got = json.loads(body)
        outcome.check(status == 200 and canonical(got) == canonical(want),
                      f"{leg_paths[k][i]}: served {got} != live {want}")
    outcome.check(len(served) == len(checked),
                  f"only {len(served)}/{len(checked)} checked answers "
                  "arrived", len(checked) - len(served))
    detail["checked_answers"] = len(served)
    return {"metrics": metrics, "outcome": outcome,
            "graph_size": len(nodes), "detail": detail}


def timed_leg(connect, send, requests, rate, keep=frozenset()):
    """One open-loop leg, repeated once if the generator fell behind;
    a second such leg makes the run invalid."""
    for _attempt in range(2):
        gen0 = time.process_time()
        outcomes = loadgen.open_loop(connect, send, requests, rate=rate,
                                     keep=keep)
        busy = time.process_time() - gen0
        leg = loadgen.summarize(outcomes, rate)
        if not generator_behind(leg, busy):
            return outcomes, leg
    raise InvalidRun(
        f"the load generator fell behind at {rate:g} req/s: it was busy "
        f"{busy:.2f} s of a {leg.wall_s:.2f} s leg "
        f"(lateness p99 {leg.lateness_p99_s * 1e3:.2f} ms)")


def generator_behind(leg: loadgen.LegSummary, generator_cpu: float) -> bool:
    """Whether the load generator, not the server, set a leg's pace.

    Lateness alone does not tell: a host stall delays the generator's
    wake-ups and the server's alike.  A generator that fell behind is
    one that had no CPU to spare.
    """
    return generator_cpu / leg.wall_s > GENERATOR_CPU_SHARE


def ladder(server, nodes, targets, rng, capacity, outcome):
    """Highest passing rung's achieved rate, and every rung probed."""
    connect, send = loadgen.http_sender("127.0.0.1", server.port)
    rates = measure.ladder()
    start = max(
        (i for i, r in enumerate(rates) if r <= 0.6 * capacity), default=0)
    probed: list[dict[str, Any]] = []
    achieved: dict[float, float] = {}

    def passes(rate: float) -> bool:
        """A rung fails only when two attempts fail: a host stall can
        sink one attempt, a rate beyond the server sinks both."""
        for _attempt in range(2):
            requests = [loadgen.encode(p) for p in
                        loadgen.zipf_mix(nodes, targets, RUNG_REQUESTS, rng)]
            _, rung = timed_leg(connect, send, requests, rate)
            outcome.attempted += rung.count
            outcome.check(not rung.failed, f"{rung.failed} requests failed "
                          f"on the {rate:g} req/s rung", rung.failed)
            ok = measure.rung_passes(rung.latencies, rung.send_delays,
                                     rung.failed)
            probed.append({"rate": rate, "pass": ok,
                           "p99_ms": rung.p99_s * 1e3,
                           "achieved": rung.achieved_rate})
            time.sleep(0.2)  # let a backlog drain before the next rung
            if ok:
                achieved[rate] = rung.achieved_rate
                return True
        return False

    best = measure.search_ladder(rates, passes, start)
    outcome.check(best is not None, "even the lowest ladder rung failed")
    return (achieved[rates[best]] if best is not None else 0.0), probed


def serve_layer_metrics(stats, outcomes, legs, server_cpu, gen_cpu):
    """The serve and cache per-layer figures: the server's own ``/stats``
    counters and histograms, plus client-side timing."""
    latency = stats["latency"]
    out: dict[str, float] = {}
    endpoint_p50s = []
    for endpoint in loadgen.ENDPOINTS:
        snap = latency.get(endpoint, {})
        name = endpoint.strip("/")
        out[f"serve.{name}.answer_p50_us"] = snap.get("p50_us") or 0.0
        out[f"serve.{name}.answer_p99_us"] = snap.get("p99_us") or 0.0
        endpoint_p50s.append(snap.get("p50_us") or 0.0)
    client_p50_us = measure.median([o.done - o.sent for o in outcomes]) * 1e6
    out["serve.transport_p50_us"] = client_p50_us - measure.median(
        endpoint_p50s)
    queries = sum(latency.get(e, {}).get("count", 0)
                  for e in loadgen.ENDPOINTS)
    tiers = stats["tiers"]
    out["serve.metric_hits"] = float(stats["metric_hits"])
    out["serve.metric_misses"] = float(stats["metric_misses"])
    out["serve.fast_path_share"] = (
        (queries - stats["metric_misses"] - tiers["computed"]) / queries
        if queries else 0.0
    )
    out["serve.server_cpu_s"] = server_cpu
    out["loadgen.cpu_s"] = gen_cpu
    out["loadgen.lateness_p99_ms"] = measure.median(
        [leg.lateness_p99_s for leg in legs]) * 1e3
    lookups = tiers["lru"] + tiers["disk"] + tiers["computed"]
    out["cache.lru_hits"] = float(tiers["lru"])
    out["cache.disk_hits"] = float(tiers["disk"])
    out["cache.computed"] = float(tiers["computed"])
    out["cache.evictions"] = float(stats["evictions"])
    out["cache.hit_rate"] = tiers["lru"] / lookups if lookups else 0.0
    return out


WORKLOADS: dict[str, Callable[[int, float, bool], dict[str, Any]]] = {
    "report": report,
    "precompute": precompute,
    "serve": serve,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace))
    except InvalidRun as exc:
        Path(args.out).write_text(json.dumps({"invalid": str(exc)}))
        return 3
    outcome = result.pop("outcome")
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        failures=outcome.reasons[:20],
        stamp=stamp(result.pop("graph_size")),
    )
    Path(args.out).write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
