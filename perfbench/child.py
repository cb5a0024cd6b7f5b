"""Traced ``explogint`` command for one ``deep_log`` request.

Installs the tracer in a fresh interpreter, runs ``cli.main`` on the given
arguments and writes the spans to ``TRACE_PATH``; the command's own output
and exit code pass through unchanged.

    python3 perfbench/child.py TRACE_PATH eval EXPR --json   (PYTHONPATH must hold src)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    from explogint import cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, import_ms=import_ms, final_counts=list(tracer.counts.values()))


if __name__ == "__main__":
    sys.exit(main())
