"""Command-line interface.

Subcommands mirror the workflows a downstream user actually has:

* ``repro generate`` — write a synthetic Internet as a CAIDA-format
  relationship file (plus, optionally, a collector RIB dump);
* ``repro reach`` — the reachability metric family for one origin in a
  relationship file;
* ``repro sweep`` — top-N networks by hierarchy-free reachability;
* ``repro leak`` — route-leak resilience summary for one origin;
* ``repro infer`` — AS-relationship inference from a collector dump;
* ``repro timeline`` — replay a dynamic-topology event timeline and
  report per-event reachability/reliance/hegemony series;
* ``repro precompute`` — shard every origin's routing state to disk
  under a content-addressed results directory;
* ``repro serve`` — HTTP query service over the warm-LRU + mmap-shard
  tiers (reachable/path_length/reliance/hegemony/rib);
* ``repro experiments`` — run every table/figure reproduction.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bgpsim.engine import ENGINES


def _load_graph_and_tiers(path: str, tier2_count: int = 25):
    from .topology import infer_tiers, load_graph

    graph = load_graph(path)
    tiers = infer_tiers(graph, tier2_count=tier2_count, min_tier1_adjacency=1)
    return graph, tiers


def cmd_generate(args: argparse.Namespace) -> int:
    from .netgen import build_scenario, profile
    from .topology import dump_graph

    config = profile(args.profile, seed=args.seed)
    scenario = build_scenario(config)
    dump_graph(
        scenario.graph,
        args.output,
        serial=args.serial,
        header=f"synthetic Internet, profile={args.profile} seed={args.seed}",
    )
    print(
        f"wrote {len(scenario.graph)} ASes / "
        f"{scenario.graph.edge_count()} edges to {args.output}"
    )
    if args.mrt:
        from .collectors import collect_ribs, dump_mrt

        dump = collect_ribs(
            scenario.graph,
            scenario.monitors,
            scenario.prefixes,
            rng=random.Random(args.seed),
        )
        with open(args.mrt, "w", encoding="utf-8") as handle:
            dump_mrt(dump, handle)
        print(f"wrote {len(dump)} RIB entries to {args.mrt}")
    return 0


def cmd_reach(args: argparse.Namespace) -> int:
    from .core import customer_cone_size, reachability_report

    graph, tiers = _load_graph_and_tiers(args.file)
    if args.origin not in graph:
        print(f"error: AS{args.origin} not in {args.file}", file=sys.stderr)
        return 1
    report = reachability_report(graph, args.origin, tiers)
    total = len(graph) - 1
    print(f"AS{args.origin} ({len(graph)} ASes in topology)")
    print(f"  customer cone:   {customer_cone_size(graph, args.origin)}")
    print(f"  full:            {report.full}")
    print(f"  provider-free:   {report.provider_free}")
    print(f"  Tier-1-free:     {report.tier1_free}")
    print(
        f"  hierarchy-free:  {report.hierarchy_free} "
        f"({report.hierarchy_free / max(total, 1):.1%})"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .core import hierarchy_free_sweep, rank_by

    graph, tiers = _load_graph_and_tiers(args.file)
    values = hierarchy_free_sweep(graph, tiers)
    total = max(len(graph) - 1, 1)
    print(f"top {args.top} by hierarchy-free reachability:")
    for rank, (asn, value) in enumerate(rank_by(values)[: args.top], 1):
        print(f"  {rank:3d}. AS{asn:<8d} {value:6d} ({value / total:.1%})")
    return 0


def _parse_workers(value: str) -> int | str:
    """argparse type for ``--workers``: an int, or ``auto`` for all CPUs."""
    if value == "auto":
        return value
    return int(value)


def cmd_leak(args: argparse.Namespace) -> int:
    from .core import LEAK_CONFIGURATIONS, resilience_curve
    from .experiments.report import cdf_summary

    graph, tiers = _load_graph_and_tiers(args.file)
    if args.origin not in graph:
        print(f"error: AS{args.origin} not in {args.file}", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    nodes = sorted(graph.nodes())
    leakers = rng.sample(nodes, k=min(args.leakers, len(nodes)))
    configurations = (
        [args.config] if args.config else list(LEAK_CONFIGURATIONS)
    )
    print(
        f"leaking AS{args.origin}'s prefix from {len(leakers)} random ASes:"
    )
    for configuration in configurations:
        curve = resilience_curve(
            graph, args.origin, tiers, configuration, leakers,
            workers=args.workers, engine=args.engine,
        )
        print(f"  {configuration:28s} {cdf_summary(curve)}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    from .collectors import parse_mrt
    from .inference import (
        evaluate_inference,
        infer_asrank,
        infer_gao,
        infer_problink,
    )

    text = Path(args.mrt).read_text(encoding="utf-8")
    paths = parse_mrt(text).paths()
    algorithm = {
        "gao": infer_gao,
        "asrank": infer_asrank,
        "problink": infer_problink,
    }[args.algorithm]
    result = algorithm(paths)
    records = result.records
    p2c = sum(1 for r in records if r.is_transit)
    print(
        f"{args.algorithm}: inferred {len(records)} edges "
        f"({p2c} p2c, {len(records) - p2c} p2p) from {len(paths)} paths"
    )
    if args.truth:
        from .topology import load_graph

        truth = load_graph(args.truth)
        accuracy = evaluate_inference(truth, records)
        print(f"vs truth: {accuracy.summary()}")
    if args.output:
        from .topology import dump_graph

        dump_graph(result.as_graph(), args.output, serial=2)
        print(f"wrote inferred relationships to {args.output}")
    return 0


def cmd_precompute(args: argparse.Namespace) -> int:
    from .bgpsim.shards import (
        ShardError,
        ShardStore,
        precompute_metric_shards,
        precompute_shards,
    )
    from .topology import load_graph

    graph = load_graph(args.file)
    origins = None
    if args.origins:
        origins = [int(o) for o in args.origins.split(",") if o]
        unknown = [o for o in origins if o not in graph]
        if unknown:
            print(
                f"error: AS{unknown[0]} not in {args.file}", file=sys.stderr
            )
            return 1
    targets = None
    if args.metric_targets:
        if args.metric_targets.isdigit():
            from .bgpsim.shards import default_metric_targets

            targets = default_metric_targets(graph, int(args.metric_targets))
        else:
            targets = [int(t) for t in args.metric_targets.split(",") if t]

    total = len(origins) if origins is not None else len(graph)
    last = [-1]

    def progress(done: int, count: int) -> None:
        percent = done * 100 // count
        if percent >= last[0] + 10 or done == count:
            last[0] = percent
            print(f"  {done}/{count} origins", file=sys.stderr)

    target = precompute_shards(
        graph,
        args.output,
        origins=origins,
        shard_size=args.shard_size,
        force=args.force,
        progress=progress if not args.quiet else None,
    )
    if args.metrics:
        if not args.quiet:
            print("  metric pass:", file=sys.stderr)
        last[0] = -1
        try:
            precompute_metric_shards(
                graph,
                args.output,
                origins=origins,
                targets=targets,
                trim=args.trim,
                workers=args.workers,
                shard_size=args.shard_size,
                force=args.force,
                progress=progress if not args.quiet else None,
            )
        except ShardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    with ShardStore.open(target) as store:
        manifest = store.manifest
        metric = ""
        if store.metrics is not None:
            metric = (
                f" + {len(store.metrics)} metric rows × "
                f"{len(store.metrics.targets)} hegemony targets"
            )
        print(
            f"precomputed {len(store)}/{total} origins into "
            f"{len(manifest['shards'])} shard(s) under {target} "
            f"(graph {manifest['graph_digest'][:16]}){metric}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .bgpsim.shards import ShardError, ShardStore
    from .serve import (
        QueryService,
        ServiceSpec,
        WorkerSupervisor,
        run_smoke_queries,
        serve,
        smoke_check,
        smoke_expected,
    )
    from .topology import load_graph

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 1
    graph = load_graph(args.file)
    store = None
    if args.shards:
        try:
            store = ShardStore.open(args.shards, graph=graph, lease=True)
        except ShardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.workers > 1:
        # multi-process fan-out: each worker rebuilds the service from
        # the spec and mmaps the (page-cache-shared) corpus itself; the
        # parent's own store handle only validated the flags above
        spec = ServiceSpec(
            graph_file=args.file,
            shards=None if store is None else str(store.directory),
            maxsize=args.maxsize,
            engine=args.engine,
        )
        if args.smoke:
            service = QueryService(
                graph,
                shards=store,
                maxsize=args.maxsize,
                engine=args.engine,
            )
            expected = smoke_expected(service)
            with WorkerSupervisor(
                spec, workers=args.workers, host=args.host
            ) as supervisor:
                failures = run_smoke_queries(
                    supervisor.base_url,
                    expected,
                    require_metric_tier=service.metrics is not None,
                )
            store_close = service.cache.shards
            if store_close is not None:
                store_close.close()
            if failures:
                for failure in failures:
                    print(f"smoke FAIL: {failure}", file=sys.stderr)
                return 1
            print(
                "smoke ok: every endpoint matches live propagation "
                f"({len(graph)} ASes, shards={'yes' if store else 'no'}, "
                f"workers={args.workers})"
            )
            return 0
        if store is not None:
            store.close()  # workers hold their own leases
        tier = f" + precomputed corpus {args.shards}" if args.shards else ""
        with WorkerSupervisor(
            spec, workers=args.workers, host=args.host, port=args.port
        ) as supervisor:
            print(
                f"serving {len(graph)} ASes on {supervisor.base_url} "
                f"across {args.workers} workers "
                f"(SO_REUSEPORT{tier}); Ctrl-C stops"
            )
            try:
                while supervisor.pids():
                    import time

                    time.sleep(1.0)
                print(
                    "error: every worker exited "
                    f"(restarts exhausted at {supervisor.restarts})",
                    file=sys.stderr,
                )
                return 1
            except KeyboardInterrupt:
                pass
        return 0

    service = QueryService(
        graph,
        shards=store,
        maxsize=args.maxsize,
        engine=args.engine,
    )
    if args.smoke:
        failures = smoke_check(service, host=args.host)
        if store is not None:
            store.close()
        if failures:
            for failure in failures:
                print(f"smoke FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            "smoke ok: every endpoint matches live propagation "
            f"({len(graph)} ASes, shards={'yes' if store else 'no'})"
        )
        return 0
    tier = f" + {len(store)} precomputed origins" if store else ""
    metric = (
        f", {len(store.metrics)} metric rows"
        if store is not None and store.metrics is not None
        else ""
    )
    print(
        f"serving {len(graph)} ASes on http://{args.host}:{args.port} "
        f"(warm LRU maxsize={args.maxsize}{tier}{metric}); Ctrl-C stops"
    )
    try:
        asyncio.run(serve(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    finally:
        if store is not None:
            store.close()
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bgpsim.shards import (
        MANIFEST_NAME,
        ShardError,
        ShardStore,
        gc_corpora,
        graph_digest,
    )

    root = Path(args.root)
    kept = sorted(p.parent for p in root.glob(f"*/{MANIFEST_NAME}"))
    if args.keep:
        from .topology import load_graph

        digests = []
        for path in args.keep:
            digests.append(graph_digest(load_graph(path).compile()))
        removed, kept, refused = gc_corpora(root, digests)
        for corpus in removed:
            print(f"removed {corpus} (no retained graph matches)")
        for corpus in refused:
            print(
                f"refused to remove {corpus}: live process leases",
                file=sys.stderr,
            )
    status = 0
    for corpus in kept:
        try:
            store = ShardStore.open(corpus, lease=True)
        except ShardError as exc:
            print(f"skipping {corpus}: {exc}", file=sys.stderr)
            continue
        try:
            stats = store.compact(shard_size=args.shard_size)
        except ShardError as exc:
            print(f"refused to compact {corpus}: {exc}", file=sys.stderr)
            status = 1
            continue
        finally:
            store.close()
        if stats["merged"]:
            files = (
                stats["routing_files_before"] + stats["metric_files_before"],
                stats["routing_files_after"] + stats["metric_files_after"],
            )
            print(
                f"compacted {corpus}: {files[0]} -> {files[1]} files, "
                f"{stats['bytes_before']} -> {stats['bytes_after']} bytes"
            )
        else:
            print(f"{corpus}: already compact")
    return status


def cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bgpsim.shards import MANIFEST_NAME, ShardError, ShardStore

    root = Path(args.corpus)
    corpora = (
        [root]
        if (root / MANIFEST_NAME).exists()
        else sorted(p.parent for p in root.glob(f"*/{MANIFEST_NAME}"))
    )
    if not corpora:
        print(f"error: no shard corpus under {root}", file=sys.stderr)
        return 1
    for corpus in corpora:
        try:
            with ShardStore.open(corpus) as store:
                counts = store.check()
        except ShardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"{corpus}: "
            + ", ".join(
                f"{records} {kind} records in {files} file(s)"
                for kind, (records, files) in counts.items()
            )
        )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from .experiments.timeline import ScenarioRunner, parse_events
    from .topology import load_graph

    graph = load_graph(args.file)
    if args.origin not in graph:
        print(f"error: AS{args.origin} not in {args.file}", file=sys.stderr)
        return 1
    try:
        events = parse_events(args.events)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    targets = (
        [int(t) for t in args.targets.split(",") if t] if args.targets else []
    )
    shards = None
    if args.shards:
        from .bgpsim.shards import ShardError, ShardStore

        try:
            shards = ShardStore.open(args.shards, graph=graph, lease=True)
        except ShardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    runner = ScenarioRunner(
        graph,
        origins=[args.origin],
        targets=targets,
        shards=shards,
    )
    try:
        result = runner.run(events)
    except (KeyError, ValueError) as exc:
        # an event the topology refuses (a missing or an existing link)
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    finally:
        if shards is not None:
            shards.close()
    print(
        f"timeline for AS{args.origin} "
        f"({len(graph)} ASes, {len(events)} events):"
    )
    for record in result.series(args.origin):
        extra = ""
        if record.captured is not None:
            extra += f"  captured={record.captured}"
        print(
            f"  step {record.step:2d}  {record.event:28s} "
            f"reachable={record.reachable}{extra}"
        )
        for target in targets:
            print(
                f"           target AS{target}: "
                f"reliance={record.reliance[target]:.4f} "
                f"hegemony={record.hegemony[target]:.4f}"
            )
    stats = runner.cache.stats()
    disk = f" / {stats.disk_hits} disk hits" if shards is not None else ""
    print(
        f"  cache: {stats.hits} hits / {stats.misses} misses{disk}, "
        f"{stats.baseline_invalidations} baseline invalidations"
    )
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import main as runner_main

    argv = [args.profile]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if args.engine is not None:
        argv += ["--engine", args.engine]
    return runner_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Cloud Provider Connectivity in the "
            "Flat Internet' (IMC 2020)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="write a synthetic Internet as a CAIDA-format file"
    )
    generate.add_argument(
        "profile", help="tiny | small | mid | large | year2020 | year2015"
    )
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--seed", type=int, default=20200901)
    generate.add_argument("--serial", type=int, choices=(1, 2), default=2)
    generate.add_argument(
        "--mrt", help="also write a collector RIB dump to this path"
    )
    generate.set_defaults(func=cmd_generate)

    reach = sub.add_parser(
        "reach", help="reachability metric family for one origin"
    )
    reach.add_argument("file", help="CAIDA serial-1/serial-2 file")
    reach.add_argument("origin", type=int)
    reach.set_defaults(func=cmd_reach)

    sweep = sub.add_parser(
        "sweep", help="top networks by hierarchy-free reachability"
    )
    sweep.add_argument("file")
    sweep.add_argument("--top", type=int, default=20)
    sweep.set_defaults(func=cmd_sweep)

    leak = sub.add_parser("leak", help="route-leak resilience summary")
    leak.add_argument("file")
    leak.add_argument("origin", type=int)
    leak.add_argument("--leakers", type=int, default=50)
    leak.add_argument("--seed", type=int, default=7)
    leak.add_argument(
        "--config",
        choices=(
            "announce_all",
            "announce_all_t1_lock",
            "announce_all_t1t2_lock",
            "announce_all_global_lock",
            "announce_hierarchy_only",
        ),
    )
    leak.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        help="propagation worker processes (int, or 'auto' for all CPUs)",
    )
    leak.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="propagation engine (default: compiled, or $REPRO_ENGINE); "
        "'compiled' derives each leak from a shared per-configuration "
        "baseline",
    )
    leak.set_defaults(func=cmd_leak)

    infer = sub.add_parser(
        "infer", help="infer AS relationships from a collector dump"
    )
    infer.add_argument("mrt", help="MRT-style text dump (repro generate --mrt)")
    infer.add_argument(
        "--algorithm", choices=("gao", "asrank", "problink"), default="asrank"
    )
    infer.add_argument("--truth", help="ground-truth relationship file")
    infer.add_argument("-o", "--output", help="write inferred relationships")
    infer.set_defaults(func=cmd_infer)

    timeline = sub.add_parser(
        "timeline",
        help="replay a dynamic-topology event timeline for one origin",
    )
    timeline.add_argument("file", help="CAIDA serial-1/serial-2 file")
    timeline.add_argument("origin", type=int)
    timeline.add_argument(
        "--events",
        required=True,
        help="comma-separated timeline, e.g. "
        "'down:11-100,hijack:301,up:11-100:p2c' (kinds: down, up, "
        "depeer, fail, hijack, leak)",
    )
    timeline.add_argument(
        "--targets",
        help="comma-separated ASNs to report reliance/hegemony toward",
    )
    timeline.add_argument(
        "--shards",
        help="precomputed shard directory (repro precompute) serving "
        "pre-event baselines from mmap instead of propagating",
    )
    timeline.set_defaults(func=cmd_timeline)

    precompute = sub.add_parser(
        "precompute",
        help="shard every origin's routing state to disk for O(1) serving",
    )
    precompute.add_argument("file", help="CAIDA serial-1/serial-2 file")
    precompute.add_argument(
        "-o",
        "--output",
        required=True,
        help="results root; shards land under <output>/<graph-digest16>/",
    )
    precompute.add_argument(
        "--origins",
        help="comma-separated ASNs (default: every AS in the graph)",
    )
    precompute.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        help="worker processes for the metric pass (int, or 'auto' for "
        "all CPUs); the routing pass runs in-process",
    )
    precompute.add_argument(
        "--shard-size",
        type=int,
        default=4096,
        help="origins per shard file (default: 4096)",
    )
    precompute.add_argument(
        "--force",
        action="store_true",
        help="rebuild even if a complete corpus already exists",
    )
    precompute.add_argument(
        "--metrics",
        action="store_true",
        help="also write metric shards (per-origin reliance vectors + "
        "fused hegemony rows) so /reliance and /hegemony skip their "
        "kernels entirely",
    )
    precompute.add_argument(
        "--metric-targets",
        help="hegemony targets for the metric shards: an integer N "
        "(top-N ASes by degree) or a comma-separated ASN list "
        "(default: top-64)",
    )
    precompute.add_argument(
        "--trim",
        type=float,
        default=None,
        help="trimmed-mean fraction for stored hegemony rows "
        "(default: 0.1, the paper's)",
    )
    precompute.add_argument("-q", "--quiet", action="store_true")
    precompute.set_defaults(func=cmd_precompute)

    compact = sub.add_parser(
        "compact",
        help="merge rolling shard files and garbage-collect superseded "
        "corpora under a shard root",
    )
    compact.add_argument(
        "root", help="corpus root (the -o passed to repro precompute)"
    )
    compact.add_argument(
        "--keep",
        action="append",
        help="topology file whose corpus must be retained; corpora "
        "matching no --keep graph are deleted (omit to only merge, "
        "never delete)",
    )
    compact.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="origins per merged shard file (default: the corpus's own)",
    )
    compact.set_defaults(func=cmd_compact)

    verify = sub.add_parser(
        "verify",
        help="check the crc32 of every record in a shard corpus",
    )
    verify.add_argument(
        "corpus",
        help="corpus directory, or a root holding several (the -o passed "
        "to repro precompute)",
    )
    verify.set_defaults(func=cmd_verify)

    serve = sub.add_parser(
        "serve",
        help="HTTP query service over the warm-LRU + mmap-shard tiers",
    )
    serve.add_argument("file", help="CAIDA serial-1/serial-2 file")
    serve.add_argument(
        "--shards",
        help="precomputed shard directory (repro precompute) to mmap as "
        "the disk tier",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8351)
    serve.add_argument(
        "--maxsize",
        type=int,
        default=1024,
        help="warm-tier LRU bound (default: 1024)",
    )
    serve.add_argument("--engine", choices=ENGINES, default=None)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serving processes sharing the address via SO_REUSEPORT "
        "(default: 1, in-process; each worker mmaps the same corpus "
        "and a supervisor restarts dead workers)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="bind an ephemeral port, issue one query per endpoint, diff "
        "against live propagation, and exit (CI health check)",
    )
    serve.set_defaults(func=cmd_serve)

    experiments = sub.add_parser(
        "experiments", help="run every table/figure reproduction"
    )
    experiments.add_argument("profile", nargs="?", default="small")
    experiments.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        help="worker processes for the route-leak sweeps of Figs. 7-10 "
        "(int, or 'auto' for all CPUs); every other figure runs "
        "in-process",
    )
    experiments.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="propagation engine (default: compiled, or $REPRO_ENGINE)",
    )
    experiments.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
