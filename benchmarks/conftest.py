"""Benchmark fixtures: shared experiment contexts and JSON records.

Contexts are built once per session (the full §4 measurement pipeline) and
shared across benchmarks via the module-level cache in
``repro.experiments.context``.  Set ``REPRO_PROFILE=year2020`` to run the
benchmarks at full scenario scale.

Benchmarks that persist machine-readable records should write them through
:func:`write_bench_json`, which stamps the environment every record needs
to be interpretable in review: the resolved propagation ``engine``, the
``workers`` count the benchmark ran with, the resolved multi-origin
``batch`` width, and the host's ``cpu_count``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.bgpsim import resolve_batch, resolve_engine, resolve_shm
from repro.experiments.context import cached_context
from repro.netgen import companion_2015

PROFILE = os.environ.get("REPRO_PROFILE", "small")


def bench_metadata(
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    batch: Optional[int] = None,
) -> dict[str, Any]:
    """The environment stamp every benchmark JSON record carries."""
    return {
        "profile": PROFILE,
        "engine": resolve_engine(engine),
        "workers": workers,
        "batch": resolve_batch(batch),
        "shm": resolve_shm(),
        "cpu_count": os.cpu_count() or 1,
    }


def write_bench_json(
    path: Path,
    record: dict[str, Any],
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    batch: Optional[int] = None,
    **extra: Any,
) -> dict[str, Any]:
    """Stamp ``record`` with :func:`bench_metadata` and write it to ``path``.

    Explicit keys in ``record`` win over the stamped defaults, so a
    benchmark comparing several engines can still record its own view.
    Keyword ``extra`` lands in the stamp too — bench-serve uses it to
    record whether metric shards were mapped and how many serve worker
    processes ran, so a reviewed record says which tiers were live.
    Returns the record as written.
    """
    merged = {
        **bench_metadata(engine=engine, workers=workers, batch=batch),
        **extra,
        **record,
    }
    path.write_text(json.dumps(merged, indent=2) + "\n")
    return merged


@pytest.fixture(scope="session")
def ctx2020():
    return cached_context(PROFILE)


@pytest.fixture(scope="session")
def ctx2015():
    return cached_context(companion_2015(PROFILE))


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
