"""Run every experiment and render a combined report.

``run_all`` reproduces each table and figure of the paper in sequence on
one (or, for the longitudinal artifacts, two) scenario contexts.  The
``python -m repro.experiments.runner [profile]`` entry point prints the
whole report — this is what EXPERIMENTS.md is generated from.
"""

from __future__ import annotations

import os
import sys
import time

from . import (
    appendixA_paths,
    appendixB_tier1,
    appendixD_geolocation,
    fig2_reachability,
    fig3_cone_vs_hfr,
    fig4_unreachable,
    fig6_table2_reliance,
    fig7_10_leaks,
    fig11_map,
    fig12_coverage,
    fig13_pathlen,
    metrics_comparison,
    sec45_validation,
    table1_top20,
    table3_rdns,
)
from .context import ExperimentContext, build_context


def run_all(
    ctx_2020: ExperimentContext,
    ctx_2015: ExperimentContext,
    leaks_per_config: int = 60,
    workers: int | str | None = None,
) -> dict[str, object]:
    """Run every experiment; returns {experiment id: result}.

    ``workers`` runs the route-leak sweeps (Figs. 7-10) across that many
    processes, the only figures a second worker speeds up; every other
    figure runs in-process.  Every experiment's output is identical for
    any worker count and on either engine (see
    ``tests/test_parallel_engine.py`` / ``tests/test_sweep_oracle.py``).
    """
    results: dict[str, object] = {}
    results["sec4_5"] = sec45_validation.run(ctx_2020)
    results["fig2"] = fig2_reachability.run(ctx_2020)
    results["table1"] = table1_top20.run(ctx_2020, ctx_2015)
    results["fig3"] = fig3_cone_vs_hfr.run(ctx_2020)
    results["fig4"] = fig4_unreachable.run(ctx_2020)
    results["fig6_table2"] = fig6_table2_reliance.run(ctx_2020)
    results["fig7_8"] = fig7_10_leaks.run(
        ctx_2020, leaks_per_config=leaks_per_config, workers=workers
    )
    results["fig9"] = fig7_10_leaks.run_fig9(
        ctx_2020, leaks_per_config=leaks_per_config, workers=workers
    )
    results["fig10"] = fig7_10_leaks.run_fig10(
        ctx_2020, ctx_2015, leaks_per_config=leaks_per_config, workers=workers
    )
    results["fig11"] = fig11_map.run(ctx_2020)
    results["fig12"] = fig12_coverage.run(ctx_2020)
    results["table3"] = table3_rdns.run(ctx_2020)
    results["appendixA"] = appendixA_paths.run(ctx_2020)
    results["appendixB"] = appendixB_tier1.run(ctx_2020)
    results["appendixD"] = appendixD_geolocation.run(ctx_2020)
    results["fig13"] = fig13_pathlen.run(ctx_2020, ctx_2015)
    results["metrics"] = metrics_comparison.run(ctx_2020)
    return results


def render_all(results: dict[str, object]) -> str:
    """Combined plain-text report."""
    sections = []
    for key, result in results.items():
        render = getattr(result, "render", None)
        if render is None:
            continue
        sections.append(f"===== {key} =====\n{render()}")
    fig9 = results.get("fig9")
    if fig9 is not None and hasattr(fig9, "users_curves"):
        from .report import cdf_summary

        lines = [
            f"  {config}: {cdf_summary(curve)}"
            for config, curve in fig9.users_curves.items()
        ]
        sections.append(
            "===== fig9 (users detoured, Google) =====\n" + "\n".join(lines)
        )
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    from ..netgen import companion_2015

    argv = sys.argv[1:] if argv is None else argv
    csv_dir = None
    if "--csv" in argv:
        index = argv.index("--csv")
        csv_dir = argv[index + 1]
        argv = argv[:index] + argv[index + 2 :]
    workers: int | str | None = None
    if "--workers" in argv:
        index = argv.index("--workers")
        raw = argv[index + 1]
        workers = raw if raw == "auto" else int(raw)
        argv = argv[:index] + argv[index + 2 :]
    if "--engine" in argv:
        # Exported rather than threaded through run_all: every propagate()
        # call (parent and pool workers alike) reads REPRO_ENGINE at call
        # time, so one env var switches the whole experiment run.
        index = argv.index("--engine")
        os.environ["REPRO_ENGINE"] = argv[index + 1]
        argv = argv[:index] + argv[index + 2 :]
    profile_2020 = argv[0] if argv else "small"
    profile_2015 = companion_2015(profile_2020)
    started = time.time()
    print(f"building {profile_2020} (2020-like) context...", flush=True)
    ctx_2020 = build_context(profile_2020)
    print(f"building {profile_2015} context...", flush=True)
    ctx_2015 = build_context(profile_2015)
    results = run_all(ctx_2020, ctx_2015, workers=workers)
    print(render_all(results))
    if csv_dir:
        from .export import export_results

        written = export_results(results, csv_dir)
        print(f"\nwrote {len(written)} CSV files to {csv_dir}")
    print(f"\ntotal wall time: {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
