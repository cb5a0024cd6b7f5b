"""Median and spread of end-to-end metrics over several runs.

Reads the per-run records that ``run.py`` writes under ``perfbench/out/``
and prints, per workload and metric, the median, the quartiles and the
interquartile range as a share of the median (the spread the bounds in
BENCHMARK.json are compared with).

    python3 perfbench/summarize.py                 # every untraced run in out/
    python3 perfbench/summarize.py --json          # the same as JSON
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    out = {}
    for workload, recs in sorted(by_workload.items()):
        rows = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name] for r in recs]
            if not all(isinstance(v, (int, float)) for v in values):
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "iqr_share": (q3 - q1) / median if median else 0.0}
        out[workload] = {"runs": len(recs), "seeds": sorted(r["seed"] for r in recs),
                         "metrics": rows}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="run records (default: every *-trace0.json in perfbench/out)")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    files = args.files or sorted(OUT.glob("*-trace0.json"))
    summary = summarize([json.loads(f.read_text()) for f in files])
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    for workload, s in summary.items():
        print(f"{workload}: {s['runs']} runs, seeds {s['seeds']}")
        for name, m in s["metrics"].items():
            print(f"  {name:<18} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} iqr/median {m['iqr_share']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
