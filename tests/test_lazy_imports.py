"""numpy stays a lazy import: the CLI, the server, the geography package
and the experiment runner load without it, so commands that never reach
a numpy kernel do not pay its import time."""

import os
import subprocess
import sys
from pathlib import Path

import repro

MODULES = ("repro.cli", "repro.serve", "repro.geo", "repro.experiments.runner")


def test_entry_points_import_without_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    script = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "    assert 'numpy' not in sys.modules, name\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
