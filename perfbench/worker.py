"""Warm worker: serves the ``catalog`` and ``verify_mix`` requests in one process.

It reads a job (JSON) on stdin and writes one JSON result on stdout.  The
process imports explogint and nothing of mpmath, so its peak resident memory
is the program's.  One untimed pass warms the process; timed passes of the
same requests follow until the job's seconds are used, each request followed
by the reference kernel for a
fixed share of its time.  With ``trace`` set, the tracer wraps
the program before the first request and its spans are written to
``trace_path`` at the end.

    python3 perfbench/worker.py < job.json      (PYTHONPATH must hold src)
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import draws
from kernel import sample_after
from tracer import Tracer, spec_json


def catalog_grid(catalog_module):
    """(entry, param) pairs of the shipped catalog's default grid."""
    from explogint.special_values import ArgPoint

    grid = []
    for entry in catalog_module.catalog():
        if entry.param_name is None:
            params = [None]
        elif entry.param_name == "n":
            params = list(range(5))
        else:
            params = [ArgPoint.of(v) for v in catalog_module.DEFAULT_NU_VALUES]
        grid.extend((entry, p) for p in params)
    return grid


def main() -> int:
    job = json.load(sys.stdin)
    start = time.perf_counter()
    from explogint import cli, oracle

    catalog = importlib.import_module("explogint.catalog")  # the package exports a same-named function

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()

    if job["workload"] == "catalog":
        grid = catalog_grid(catalog)
        requests = draws.catalog(job["seed"], len(grid))
        table = oracle.compute_constants()

        def serve(req):
            entry, param = grid[req["check"]]
            check = catalog.check_entry(entry, param, table, catalog.DEFAULT_MU_GRID, 1e-10)
            return {"status": check.status, "symbolic_equal": check.symbolic_equal,
                    "converged": check.converged, "rel_err": check.numeric_rel_err.hex()}

        described = []  # the question of each check, for the reference
        for req in requests:
            entry, param = grid[req["check"]]
            described.append({"entry": entry.id, "param": str(param),
                              "spec": spec_json(entry.build(param))})
    else:
        requests = job["requests"]
        described = None

        def serve(req):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["verify", req["expr"], "--json"])
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    first: dict[int, dict] = {}
    extra: list[list] = []
    records: list[list] = []
    last_counts = [0, 0, 0]
    size = len(requests)

    def one_pass(number: int, timed: bool) -> None:
        for req in requests:
            if tracer is not None:
                tracer.request = number * size + req["id"]
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = serve(req)
            except Exception:  # the request failed; record it and go on
                out = {"traceback": traceback.format_exc()}
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            kern, reps = sample_after(wall) if timed else (0.0, 0)
            if req["id"] not in first:
                first[req["id"]] = out
            elif out != first[req["id"]]:
                extra.append([req["id"], number, out])
            counts = []
            if tracer is not None:  # ring operations this request made
                now = list(tracer.counts.values())
                counts = [a - b for a, b in zip(now, last_counts)]
                last_counts[:] = now
            records.append([req["id"], number, wall, cpu, kern, reps, counts])

    one_pass(0, timed=False)
    began = time.perf_counter()
    number = 0
    while number < job["min_passes"] or time.perf_counter() - began < job["seconds"]:
        number += 1
        one_pass(number, timed=True)

    result = {
        "import_ms": import_ms,
        "records": records,
        "outputs": {str(k): v for k, v in first.items()},
        "extra": extra,
        "described": described,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.dump(Path(job["trace_path"]), size=size)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
