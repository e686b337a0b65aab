"""The retired shared-memory transport's run-record setting.

Process pools (:func:`~repro.bgpsim.parallel.graph_map`) hand the
compiled graph and their shared kwargs to the pool initializer as they
are: ``fork`` workers inherit them, other start methods pickle them once
per worker.  Shipping them through shared-memory segments instead was
never faster on the two pooled paths (the leak sweeps and the metric
precompute pass), so that transport is gone.
"""

from __future__ import annotations

__all__ = ["resolve_shm"]


def resolve_shm(mode=None) -> bool:
    """``False``: no pool ships its payload through shared memory.  Kept
    for run records that stamp every resolved performance setting."""
    del mode
    return False
