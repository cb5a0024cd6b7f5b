"""Output corpus for byte-identity checks of the command-line front end.

Runs each command of the corpus in this process through
``explogint.cli.main`` and prints one line per command: its exit code, the
SHA-256 of its stdout and of its stderr, and the command as JSON.  Two
checkouts print the same lines exactly when every command behaves the same:

    PYTHONPATH=src python3 tests/output_corpus.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tests/output_corpus.py > before.txt
    diff before.txt after.txt

``explogint`` is imported from ``PYTHONPATH``; the requests are drawn with
``perfbench/draws.py`` next to this file, read only.  The corpus is the
554 distinct commands below, followed by 79 probes, whose output is
expected to change when the behaviour they probe does:

- ``verify`` of every verify_mix request of seeds 1-3, as text, ``--json``
  and ``--paper-style``;
- ``eval`` of every deep_log request of seeds 1-2 as the benchmark sends it,
  and as ``--paper-style`` text;
- ``catalog``, ``catalog --json``, ``catalog --mu 3 --max-n 6`` and
  ``weight --max-n 12 --json``.

The probes are the ``PROBES`` integrands under ``eval`` and ``verify``,
each as text and ``--json`` (40); the ``PARSE_PROBES`` under ``eval`` and
``eval --json`` (26); eight flag probes of ``catalog`` and ``weight``; the
``PRINT_PROBES`` under ``eval`` as text, ``--json`` and ``--paper-style``
(3); and ``eval`` and ``verify --json`` of an expression that starts with
``-`` but does not follow ``--``, a usage error (2).

Standard library only; pytest does not collect it (no ``test_`` prefix).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import draws  # noqa: E402
from explogint import cli  # noqa: E402

PROBES = [
    # terms that cancel decide nothing
    "exp(-x)*log(x) + exp(-x) - exp(-x)",
    "x*exp(-x) + log(x) - log(x)",
    "exp(-x) + exp(-2*x) - exp(-2*x)",
    "exp(-x) + x^(1/2)*exp(-x) - x^(1/2)*exp(-x)",
    "x - x",
    # the no-exponential rejection names its term
    "(x + 1)*(log(x) + exp(-x))",
    "3 + exp(-x)",
    # the float-range checks of quadrature
    "x^(170)*exp(-x)*log(x)^2",
    "x^(1/2)*exp(-1/1" + "0" * 300 + "*x)",
    "x^(-1/2)*exp(-1/1" + "0" * 307 + "*x)",
]

# Parser diagnostics and canonical texts, run as eval and eval --json only:
# a moved message or caret, or a number printed otherwise, shows here.
PARSE_PROBES = [
    "1e3*exp(-x)",
    "exp(-x)/2",
    "exp(-0*x)",
    "x^(1/0)*exp(-x)",
    "exp(-x)*log(x)^41",
    "exp(-x)*log(x)^0",
    "sin(x)",
    "(" * 101 + "x*exp(-x)" + ")" * 101,  # one past the nesting cap
    "1" * 4301 + "*exp(-x)",  # one digit past the default int_max_str_digits
    "2.50*exp(-x)",
    "007*exp(-x)",
    "x^(2/4)*exp(-x)",
    "x^(-0)*exp(-x)",
]


# Closed forms whose coefficients have more digits than str() writes by default,
# so the printers write them through decimal.
PRINT_PROBES = [
    "x^(2000)*exp(-x)*log(x)",
]


def corpus() -> list[list[str]]:
    commands = []
    for seed in (1, 2, 3):
        for req in draws.verify_mix(seed):
            commands += [["verify", req["expr"], *extra] for extra in ([], ["--json"], ["--paper-style"])]
    for seed in (1, 2):
        for req in draws.deep_log(seed):
            commands.append(["eval", req["expr"], "--json"] + (["--paper-style"] if req["paper"] else []))
            commands.append(["eval", req["expr"], "--paper-style"])
    commands += [["catalog"], ["catalog", "--json"], ["catalog", "--mu", "3", "--max-n", "6"],
                 ["weight", "--max-n", "12", "--json"]]
    distinct = list(dict.fromkeys(map(tuple, commands)))
    probes = [[cmd, expr, *extra] for expr in PROBES for cmd in ("eval", "verify") for extra in ([], ["--json"])]
    probes += [["eval", expr, *extra] for expr in PARSE_PROBES for extra in ([], ["--json"])]
    probes += [[cmd, "--max-n", "-1", *extra] for cmd in ("catalog", "weight") for extra in ([], ["--json"])]
    # catalog checks whose value or peak lies outside the float range
    probes += [["catalog", "--mu", *grid, *extra] for grid in (["1e-8", "--max-n", "40"], ["1e-300"])
               for extra in ([], ["--json"])]
    probes += [["eval", expr, *extra] for expr in PRINT_PROBES for extra in ([], ["--json"], ["--paper-style"])]
    probes += [["eval", "-exp(-x)*log(x)"], ["verify", "-x*exp(-x)", "--json"]]
    return [list(c) for c in distinct] + probes


def run(argv: list[str]) -> tuple[str, bytes, bytes]:
    out, err, escaped = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:  # argparse usage errors
            code = str(exc.code)
        except Exception as exc:  # an escaped exception is an outcome too; the corpus goes on
            code, escaped = f"raised {type(exc).__name__}", exc
    if escaped is not None:
        traceback.print_exception(escaped)
    return code, out.getvalue().encode(), err.getvalue().encode()


def main() -> int:
    for argv in corpus():
        code, out, err = run(argv)
        digests = " ".join(hashlib.sha256(b).hexdigest() for b in (out, err))
        print(f"{code} {digests} {json.dumps(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
