"""The repo benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload {report,precompute,serve} \
        [--seed N] [--seconds S] [--trace 0|1]

Runs the workload in a fresh child process (``perfbench/workloads.py``)
with every ``REPRO_*`` variable removed, prints each metric with its
unit, the environment stamp and any failed check, writes a record under
``.perfbench/records/``, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``, with
``--trace 1`` the ``per_layer`` ones.

Exits non-zero without a result when the program's sources are missing,
the workload crashes or overruns, or the load generator rather than the
server fell behind (an invalid run).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

#: a normal run; the first serve run of a tree also builds its corpus
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def host_probe() -> float:
    """Median seconds of a fixed pure-Python loop: how fast this shared
    host ran the interpreter around the run (recorded, never applied)."""
    times = []
    for _ in range(9):
        started = time.perf_counter()
        total, table = 0, {}
        for i in range(40000):
            total += i * i % 7
            table[i & 1023] = total
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


def stop_group(child: subprocess.Popen) -> None:
    """Kill the child's whole process group and wait for it to go."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def corpus_built() -> bool:
    from workloads import tree_digest

    key = tree_digest(ROOT / "src")[:16]
    return (WORK / "serve-corpus" / key / "done").exists()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repo benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("report", "precompute", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(2, f"no program sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    out = WORK / f"result-{args.workload}-{os.getpid()}.json"
    timeout = RUN_TIMEOUT_S
    if args.workload == "serve" and not corpus_built():
        timeout = BUILD_TIMEOUT_S
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    probe_before = host_probe()
    started = time.perf_counter()
    # its own session, so an overrun can stop the servers it started too
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(child)
        return fail(1, f"{args.workload} overran {timeout} s")
    try:
        result = json.loads(out.read_text()) if out.exists() else {}
    finally:
        out.unlink(missing_ok=True)
    if code == 3:
        return fail(3, f"invalid run, not scored: {result.get('invalid')}")
    if code != 0 or "metrics" not in result:
        return fail(1, f"{args.workload} exited with {code}")

    result["stamp"]["host_probe_s"] = [probe_before, host_probe()]
    metrics = {}
    for entry in wanted:
        value = result["metrics"].get(entry["name"])
        if value is None:
            return fail(1, f"{args.workload} did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    width = max(len(name) for name in metrics)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"({time.perf_counter() - started:.1f} s)")
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    print("  stamp: " + json.dumps(result["stamp"]))
    print("  detail: " + json.dumps(result.get("detail", {})))
    for reason in result.get("failures", []):
        print(f"  FAILED: {reason}")
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    record = records / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    record.write_text(json.dumps({**result, "result": line}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
