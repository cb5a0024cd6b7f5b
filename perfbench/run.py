"""explogint benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload catalog|deep_log|verify_mix|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/explogint``); mpmath
must be installed, because every answer is checked against it.  The load
is a closed loop with one client: the next request starts when the previous
one returns.  ``--trace 0`` prints the end-to-end row; ``--trace 1`` runs
the workload twice, untraced and traced (half the seconds each), and prints
the per-layer table.  The last line of stdout is one JSON object with the
metrics named in BENCHMARK.json.  Raw timings, reference-kernel times,
verdicts and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import draws
from kernel import sample_after

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("catalog", "deep_log", "verify_mix")
SETUP_SPAWNS = 11
CHILD_TIMEOUT = 120
WORKER_TIMEOUT = 170
MIN_PASSES = 2  # timed passes per run, at least

# The ten end-to-end metrics, in print order.
E2E_UNITS = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "run_s": "s",
    "request_p50_ref": "ratio",
    "request_tail_ref": "ratio",
    "run_ref": "ratio",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "wrong_frac": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], stdin: str | None = None, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run a child to completion and capture its output.

    The timeout is a timer that kills the child, not ``subprocess``'s own:
    that one polls the child every 50 ms, which would quantize the times.
    """
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin is not None else None,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_env())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate(stdin)
    finally:
        timer.cancel()
    out = {"rc": proc.returncode, "stdout": stdout, "stderr": stderr}
    if proc.returncode < 0:
        out["traceback"] = f"killed by signal {-proc.returncode} (timeout {timeout} s)"
    return out


def measure_setup() -> list[float]:
    """Wall seconds for fresh interpreters to import explogint and build the
    constants table; one untimed spawn first fills the OS file cache."""
    code = "import explogint; explogint.compute_constants()"
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        out = spawn([sys.executable, "-c", code])
        if out["rc"] != 0:
            raise RuntimeError(f"explogint does not import: {out['stderr'].strip()[-2000:]}")
        if i:
            times.append(time.perf_counter() - start)
    return times


# -- running the workloads ---------------------------------------------------------


def run_worker(workload: str, seed: int, seconds: float, requests, trace_path,
               min_passes: int = 1) -> dict:
    job = {"workload": workload, "seed": seed, "seconds": seconds, "requests": requests,
           "min_passes": min_passes, "trace": trace_path is not None,
           "trace_path": str(trace_path)}
    proc = spawn([sys.executable, str(HERE / "worker.py")], json.dumps(job), WORKER_TIMEOUT)
    if proc["rc"] != 0:
        raise RuntimeError(f"worker exited {proc['rc']}: {proc['stderr'].strip()[-2000:]}")
    result = json.loads(proc["stdout"])
    outputs = {int(k): v for k, v in result["outputs"].items()}
    answers: dict[int, dict] = {}
    for rid, number, *_ in result["records"]:
        answers.setdefault(number, {})[rid] = outputs[rid]
    for rid, number, out in result["extra"]:
        answers[number][rid] = out
    return {
        "records": [r[:6] for r in result["records"]],
        "answers": answers,  # pass -> request id -> output
        "questions": result["described"] or requests,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "counts": {number * len(requests or result["described"]) + rid: counts
                   for rid, number, *_, counts in result["records"]},
        "import_ms": [result["import_ms"]],
    }


def run_deep_log(seconds: float, requests, trace_dir, min_passes: int = 1) -> dict:
    records, answers, counts, imports = [], {}, {}, []
    merged = {"spans": [], "events": []}
    size = len(requests)
    began = time.perf_counter()
    number = 0
    while number < min_passes or time.perf_counter() - began < seconds:
        number += 1
        for req in requests:
            argv = ["eval", req["expr"], "--json"] + (["--paper-style"] if req["paper"] else [])
            rid = number * size + req["id"]
            if trace_dir is None:
                cmd = [sys.executable, "-m", "explogint", *argv]
            else:
                trace_file = trace_dir / f"child-{rid}.json"
                cmd = [sys.executable, str(HERE / "child.py"), str(trace_file), *argv]
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            out = spawn(cmd)
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
            records.append([req["id"], number, wall, cpu, *sample_after(wall)])
            answers.setdefault(number, {})[req["id"]] = out
            if trace_dir is not None and trace_file.exists():
                doc = json.loads(trace_file.read_text())
                trace_file.unlink()
                offset = len(merged["spans"])
                for span in doc["spans"]:
                    span[3] = span[3] + offset if span[3] >= 0 else -1
                    span[4] = rid
                    merged["spans"].append(span)
                for event in doc["events"]:
                    event["request"] = rid
                    merged["events"].append(event)
                counts[rid] = doc["final_counts"]
                imports.append(doc["import_ms"])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"records": records, "answers": answers, "questions": requests, "peak_rss_mb": peak,
            "counts": counts, "import_ms": imports, "merged": merged}


def run_workload(workload: str, seed: int, seconds: float, trace_path=None,
                 min_passes: int = 1) -> dict:
    if workload == "catalog":
        return run_worker(workload, seed, seconds, None, trace_path, min_passes)
    if workload == "verify_mix":
        return run_worker(workload, seed, seconds, draws.verify_mix(seed), trace_path,
                          min_passes)
    trace_dir = None
    if trace_path is not None:
        trace_dir = trace_path.parent / (trace_path.stem + "-children")
        trace_dir.mkdir(parents=True, exist_ok=True)
    run = run_deep_log(seconds, draws.deep_log(seed), trace_dir, min_passes)
    if trace_path is not None:
        trace_path.write_text(json.dumps({**run["merged"], "size": len(run["questions"])}))
        trace_dir.rmdir()
    return run


# -- checking and summarising ----------------------------------------------------------


def check_run(workload: str, run: dict, ref) -> dict:
    """Verdict for every (pass, request) answer; each distinct answer is checked once."""
    import checks  # needs mpmath, checked for in main()

    seen: dict[tuple[int, str], object] = {}
    verdicts = {}
    for number, answers in run["answers"].items():
        for rid, out in answers.items():
            key = (rid, json.dumps(out, sort_keys=True))
            if key not in seen:
                req = run["questions"][rid]
                if workload == "catalog":
                    seen[key] = checks.check_catalog(req, out)
                elif workload == "deep_log":
                    seen[key] = checks.check_eval(req, out, ref)
                else:
                    seen[key] = checks.check_verify(req, out, ref)
            verdicts[(number, rid)] = seen[key]
    return verdicts


def timing_metrics(run: dict) -> dict:
    """Per timed pass: median and tail request wall time, and the pass time;
    the same three in CPU time over the CPU time of one reference-kernel call
    (mean over the pass).  The run's figure is the median over passes."""
    passes: dict[int, list] = {}
    for rid, number, wall, cpu, kern, reps in run["records"]:
        if number > 0:
            passes.setdefault(number, []).append((wall, cpu, kern, reps))
    rows = []
    for rows_of_pass in passes.values():
        walls = sorted(r[0] for r in rows_of_pass)
        cpus = sorted(r[1] for r in rows_of_pass)
        kern = sum(r[2] * r[3] for r in rows_of_pass) / sum(r[3] for r in rows_of_pass)
        tail = max(len(walls) - 11, 0)  # ten samples beyond it
        rows.append({
            "request_p50_ms": statistics.median(walls) * 1e3,
            "request_tail_ms": walls[tail] * 1e3,
            "run_s": sum(walls),
            "request_p50_ref": statistics.median(cpus) / kern,
            "request_tail_ref": cpus[tail] / kern,
            "run_ref": sum(cpus) / (kern * len(cpus)),
        })
    size = len(next(iter(passes.values())))
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["tail_percentile"] = 100.0 * (max(size - 11, 0) + 1) / size
    out["passes"] = len(rows)
    out["requests_per_pass"] = size
    return out


def summarize(run: dict, verdicts: dict, setup: list[float]) -> dict:
    timed = [v for (number, _), v in verdicts.items() if number > 0]
    metrics = timing_metrics(run)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    metrics["failed_frac"] = sum(v.state == "failed" for v in timed) / len(timed)
    metrics["wrong_frac"] = sum(v.state == "wrong" for v in timed) / len(timed)
    return metrics


def defect_lines(verdicts: dict) -> list[str]:
    by_cause: dict[str, list] = {}
    for (number, rid), v in sorted(verdicts.items()):
        if v.state != "ok" and number <= 1:
            by_cause.setdefault(f"{v.state}:{v.cause}", []).append((number, rid, v))
    lines = []
    for cause, items in sorted(by_cause.items()):
        known = "known" if items[0][2].known else "UNEXPECTED"
        first_pass = [i for i in items if i[0] == 1] or items
        lines.append(f"  {cause:<28} {known:<10} {len(first_pass):>3} per pass  "
                     f"e.g. {first_pass[0][2].detail[:110]}")
    return lines


def format_rows(rows: list[tuple[str, dict]]) -> list[str]:
    head = ["workload"] + [f"{name}[{unit}]" for name, unit in E2E_UNITS.items()]
    table = [head]
    for workload, m in rows:
        cells = [workload]
        for name in E2E_UNITS:
            cell = f"{m[name]:.6g}"
            if name == "request_tail_ms":
                cell += f" (p{m['tail_percentile']:.0f})"
            cells.append(cell)
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(head))]
    return ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in table]


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_workload(args) -> int:
    import checks  # these need mpmath, checked for in main()
    import layers
    from reference import Reference

    ref = Reference()
    setup = measure_setup()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = {}
    if args.trace:
        runs["untraced"] = run_workload(args.workload, args.seed, args.seconds / 2)
        runs["traced"] = run_workload(args.workload, args.seed, args.seconds / 2,
                                      trace_path=OUT / f"{stem}-spans.json")
    else:
        # Two passes at least: one pass of deep_log (35 cold children) or of
        # verify_mix (48 requests) is too little work for steady figures.
        runs["untraced"] = run_workload(args.workload, args.seed, args.seconds,
                                        min_passes=MIN_PASSES)
    verdicts = {label: check_run(args.workload, run, ref) for label, run in runs.items()}
    all_verdicts = [v for vs in verdicts.values() for v in vs.values()]
    correct = all(v.known for v in all_verdicts)
    attempted = sum(len(run["records"]) for run in runs.values())
    failed = sum(
        verdicts[label][(number, rid)].state == "failed"
        for label, run in runs.items() for rid, number, *_ in run["records"])
    metrics = summarize(runs["untraced"], verdicts["untraced"], setup)

    spec = bench_spec()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"passes={metrics['passes']} requests/pass={metrics['requests_per_pass']} "
          f"setup spawns={len(setup)}")
    for line in format_rows([(args.workload, metrics)]):
        print(line)
    lines = defect_lines(verdicts["untraced"])
    print("answers that are not ok:" if lines else "every answer agrees with the reference")
    for line in lines:
        print(line)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup, "metrics": metrics,
              "known_defects": checks.KNOWN_DEFECTS,
              "runs": {label: {"records": run["records"], "peak_rss_mb": run["peak_rss_mb"]}
                       for label, run in runs.items()},
              "verdicts": {label: [[n, r, v.state, v.cause, v.detail]
                                   for (n, r), v in sorted(vs.items()) if v.state != "ok"]
                           for label, vs in verdicts.items()}}

    if args.trace:
        traced = runs["traced"]
        trace = json.loads((OUT / f"{stem}-spans.json").read_text())
        trace.update({
            "counts": traced["counts"],
            "import_ms": traced["import_ms"],
            "first_pass_outputs": list(traced["answers"].get(1, {}).values()),
            "run_ref_traced": timing_metrics(traced)["run_ref"],
            "run_ref_untraced": metrics["run_ref"],
        })
        per_layer = layers.layer_metrics(trace, traced["questions"], ref)
        record["per_layer"] = per_layer
        print("per-layer (traced run; times per timed request, counts over the first timed pass):")
        for name, value in per_layer.items():
            print(f"  {name:<32} {value:>14.6g} {layers.UNITS[name]}")
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result_metrics = {name: {"value": per_layer[name], "unit": unit}
                          for name, unit in wanted.items()}
    else:
        result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in spec["end_to_end"]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def all_workloads(args) -> int:
    """Run every workload in its own process and print one row each."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        record = json.loads((OUT / f"{workload}-seed{args.seed}-trace0.json").read_text())
        rows.append((workload, record["metrics"]))
    for line in format_rows(rows):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "explogint" / "__init__.py").is_file():
        print(f"error: no explogint sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401  (the reference needs it)
    except ImportError:
        print("error: mpmath is not installed; without it no answer can be checked, "
              "so no result is reported", file=sys.stderr)
        return 3
    if args.workload == "all":
        return all_workloads(args)
    return one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
