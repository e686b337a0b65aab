"""``repro serve`` with the span wrappers installed, for traced runs.

    python3 perfbench/serve_traced.py SPANS.jsonl serve TOPOLOGY [options]

Installs the wrappers of :mod:`spans`, runs the ``repro`` command line
with the remaining arguments, and writes the spans to ``SPANS.jsonl``
once the server stops (on SIGINT).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    import repro.cli
    import repro.serve  # noqa: F401 — bind its imports before wrapping

    recorder = spans.Recorder()
    recorder.install()
    try:
        return repro.cli.main(args)
    finally:
        recorder.uninstall()
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
