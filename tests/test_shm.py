"""The shared-memory transport is retired.

:mod:`repro.bgpsim.shm` keeps only :func:`~repro.bgpsim.shm.resolve_shm`,
which run records stamp and which reads ``False`` whatever it is asked.
A pooled sweep hands its graph and shared kwargs to the pool initializer
as they are, so it creates no shared-memory segment and leaves none
behind.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

from .conftest import netgen_graph, sample_origins
import repro.bgpsim
from repro.bgpsim import shm
from repro.core import simulate_leaks


def _segments() -> set[str]:
    """Names of the POSIX shared-memory segments ``SharedMemory`` makes."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestResolveShm:
    def test_off_for_every_mode(self):
        for mode in (None, "auto", "1", "0", True, False):
            assert shm.resolve_shm(mode) is False
        assert shm.__all__ == ["resolve_shm"]
        assert repro.bgpsim.resolve_shm is shm.resolve_shm


class TestParallelTransport:
    def test_no_segments_leak_after_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pooled sweep made a shared-memory segment")

        # fork workers inherit the refusal along with the payload
        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        graph = netgen_graph("tiny", 7)
        origin = sample_origins(graph, 1, seed=1)[0]
        leakers = [a for a in sample_origins(graph, 8, seed=4) if a != origin]
        before = _segments()
        pooled = simulate_leaks(graph, origin, leakers, workers=2)
        assert _segments() == before
        assert pooled == simulate_leaks(graph, origin, leakers)
