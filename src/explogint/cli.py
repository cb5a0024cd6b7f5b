"""Command-line front end.

Four commands:

    eval EXPR        print the exact closed form of an integrand
    verify EXPR      closed form vs quadrature, with pass/fail verdict
    catalog          run the nine-formula table catalog over a mu grid
    weight           weight-homogeneity table for integral e^-x (ln x)^n dx

Each command declares only the flags it reads, so any other flag is a
usage error.  Exit codes: 0 all checks passed, 1 a verification failed
or stdout was closed early (no traceback), 2 usage or parse error.  JSON
reports are deterministic: fixed field order, floats rounded to 12
significant digits.

A command usually runs in a fresh interpreter, so its imports are part of
its cost.  Only ``catalog`` imports :mod:`explogint.catalog` (inside
``cmd_catalog`` and ``_mu_grid``), and no module of the package imports
``dataclasses``, which pulls in ``inspect`` and ``ast``.  ``--json``
output is written by ``_json_text``, which gives the bytes of
``json.dumps(doc, indent=2)``: with ``indent`` set, the stdlib uses its
pure-Python encoder, about three times slower on a large closed form.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .evaluator import eval_In, eval_general
from .oracle import MAX_REL_TOL, MIN_REL_TOL, compute_constants, quadrature, verdict
from .parser import MAX_LOG_POWER, parse_integrand, to_integral_spec
from .ring import Grade, grade


def _round12(x: float) -> float:
    # Fixed significant digits keep JSON reports byte-identical across runs.
    return float(f"{x:.12e}")


def _json_text(value, indent: str, out: list) -> None:
    """Append the text of ``json.dumps(value, indent=2)`` nested at ``indent``.

    Non-empty containers are walked here, strings and ints written as the
    encoder writes them, and every other value (floats, bools, None, empty
    containers) is handed to ``json.dumps``.  Keys must be strings.  A dict's
    string and int values, most of a closed form's, are written inline.
    """
    cls = value.__class__
    if cls is str:
        out.append(encode_basestring_ascii(value))
    elif cls is int:
        out.append(int.__repr__(value))
    elif value and isinstance(value, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            cls = item.__class__
            if cls is str:
                out.append(encode_basestring_ascii(item))
            elif cls is int:
                out.append(int.__repr__(item))
            else:
                _json_text(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif value and isinstance(value, (list, tuple)):
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_text(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))


def _emit_json(doc) -> None:
    out: list[str] = []
    _json_text(doc, "", out)
    print("".join(out))


def _print_error(message: str, as_json: bool, source: Optional[str] = None,
                 position: Optional[int] = None) -> None:
    if as_json:
        doc = {"error": message}
        if position is not None:
            doc["position"] = position
        _emit_json(doc)
        return
    print(f"error: {message}", file=sys.stderr)
    if source is not None and position is not None:
        print(f"    {source}", file=sys.stderr)
        print(f"    {' ' * position}^", file=sys.stderr)


def _spec_summary(spec) -> dict:
    pf = " + ".join(
        (f"{t.coeff}" if t.power == 0 else f"{t.coeff}*x^{t.power}")
        + (f"*mu^{t.mu_power}" if t.mu_power else "")
        for t in spec.prefactor
    )
    return {
        "prefactor": pf,
        "s": str(spec.s.value),
        "log_power": spec.log_power,
        "mu": None if spec.mu is None else str(spec.mu),
    }


def cmd_eval(args: argparse.Namespace) -> int:
    integrand = parse_integrand(args.expr)
    spec = to_integral_spec(integrand)
    closed = eval_general(spec)
    doc = {
        "integrand": integrand.text,
        "spec": _spec_summary(spec),
        "closed_form": closed.render(paper_style=args.paper_style),
        "closed_form_json": closed.to_json(),
    }
    if spec.mu == 1:
        doc["at_mu_1"] = closed.at_mu_one().render(paper_style=args.paper_style)
    if args.json:
        _emit_json(doc)
        return 0
    print(f"integrand   : {doc['integrand']}")
    s = doc["spec"]
    print(f"class       : p(x) = {s['prefactor']}, s = {s['s']}, n = {s['log_power']}, mu = {s['mu'] or 'symbolic'}")
    print(f"closed form : {doc['closed_form']}")
    if "at_mu_1" in doc:
        print(f"at mu = 1   : {doc['at_mu_1']}")
    print(f"json        : {json.dumps(doc['closed_form_json'])}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _tol(args)
    integrand = parse_integrand(args.expr)
    spec = to_integral_spec(integrand)
    try:
        mu = float(spec.mu)
    except OverflowError:
        mu = math.inf
    if not 0 < mu < math.inf:  # 0.0 when a tiny rational rounds to zero
        raise ValueError("decay rate mu lies outside the float range; verify binds mu as a float")
    quad = quadrature(spec, mu, rel_tol=tol)
    closed = eval_general(spec)
    table = compute_constants(spec.log_power)  # Gamma^(k)(s), k <= n, names no zeta above zeta(n)
    closed_value = closed.evaluate(mu, table)
    rel_err, passed = verdict(closed_value, quad, tol)
    if spec.mu == 1:
        shown_form = closed.at_mu_one().render(paper_style=args.paper_style)
    else:
        shown_form = closed.render(paper_style=args.paper_style)
    doc = {
        "integrand": integrand.text,
        "closed_form": shown_form,
        "mu": _round12(mu),
        "closed_value": _round12(closed_value),
        "quadrature_value": _round12(quad.value),
        "quadrature_nodes": quad.nodes_used,
        "quadrature_converged": quad.converged,
        "rel_err": _round12(rel_err),
        "status": "pass" if passed else "fail",
    }
    if args.json:
        _emit_json(doc)
    else:
        print(f"integrand   : {doc['integrand']}")
        print(f"closed form : {doc['closed_form']}")
        print(f"closed value: {closed_value:.15g}")
        print(f"quadrature  : {quad.value:.15g}  "
              f"(nodes={quad.nodes_used}, converged={quad.converged})")
        print(f"rel err     : {rel_err:.3e}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _max_n(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise ValueError(f"--max-n must be nonnegative, got {args.max_n}")
    if args.max_n > MAX_LOG_POWER:  # the integrand language's cap on a term's n
        raise ValueError(f"--max-n of {args.command} must be at most {MAX_LOG_POWER}, got {args.max_n}")
    return args.max_n


def _tol(args: argparse.Namespace) -> float:
    if not MIN_REL_TOL <= args.tol <= MAX_REL_TOL:
        raise ValueError(f"--tol must lie in [{MIN_REL_TOL}, {MAX_REL_TOL}], got {args.tol}")
    return args.tol


def _mu_grid(args: argparse.Namespace) -> Sequence[float]:
    from .catalog import DEFAULT_MU_GRID

    for mu in args.mu or ():
        if not 0 < mu < math.inf:
            raise ValueError(f"--mu must be positive and finite, got {mu}")
    return args.mu or DEFAULT_MU_GRID


def cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import catalog, run_catalog

    mu_grid, tol, max_n = _mu_grid(args), _tol(args), _max_n(args)
    checks = run_catalog(mu_grid=mu_grid, max_n=max_n, quad_tol=tol)
    all_pass = all(c.status == "pass" for c in checks)
    if args.json:
        report = []
        for c in checks:
            d = c.report_dict()
            if c.error is None:
                d["numeric_rel_err"] = _round12(d["numeric_rel_err"])
            report.append(d)
        _emit_json(report)
        return 0 if all_pass else 1
    for entry in catalog():
        print(f"{entry.id:<9} {entry.integrand}  =  {entry.closed}")
    print()
    for c in checks:
        params = " ".join(f"{k}={v}" for k, v in c.params.items())
        sym = "ok " if c.symbolic_equal else "BAD"
        outcome = f"FAIL: {c.error}" if c.error else f"rel_err={c.numeric_rel_err:.2e} {c.status.upper()}"
        print(f"{c.id:<9} {params:<8} symbolic={sym} {outcome}")
    n_pass = sum(1 for c in checks if c.status == "pass")
    print(f"{n_pass}/{len(checks)} catalog checks passed "
          f"(mu grid: {', '.join(str(m) for m in mu_grid)})")
    return 0 if all_pass else 1


def cmd_weight(args: argparse.Namespace) -> int:
    max_n = _max_n(args)
    rows = []
    all_pass = True
    for n in range(max_n + 1):
        g = grade(eval_In(n))
        expected = Grade("homogeneous", Fraction(n))
        ok = g == expected
        all_pass = all_pass and ok
        rows.append({"n": n, "grade": str(g), "status": "pass" if ok else "fail"})
    if args.json:
        _emit_json(rows)
        return 0 if all_pass else 1
    for row in rows:
        print(f"n = {row['n']:<3} {row['grade']:<28} {row['status'].upper()}")
    print("all weight checks passed" if all_pass else "weight check FAILED")
    return 0 if all_pass else 1


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explogint",
        description="Exact closed forms for integrals of p(x) x^(s-1) e^(-mu x) (ln x)^n, "
        "with independent numeric verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print the exact closed form of an integrand")
    p_eval.add_argument("expr")
    p_verify = sub.add_parser("verify", help="check a closed form against quadrature")
    p_verify.add_argument("expr")
    p_catalog = sub.add_parser("catalog", help="verify the nine table formulas")
    p_catalog.add_argument("--mu", type=float, action="append", default=None,
                           help="mu grid value (repeatable; default 0.5 1 2 10)")
    p_weight = sub.add_parser("weight", help="weight homogeneity of Gamma^(n)(1)")

    for p in (p_verify, p_catalog):
        p.add_argument("--tol", type=float, default=1e-10,
                       help="quadrature tolerance (default 1e-10); verification passes at 10*tol")
    for p in (p_catalog, p_weight):
        p.add_argument("--max-n", type=int, default=4, help="largest log power / x power")
    for p in (p_eval, p_verify, p_catalog, p_weight):
        p.add_argument("--json", action="store_true", help="machine-readable output")
    for p in (p_eval, p_verify):
        p.add_argument("--paper-style", action="store_true",
                       help="render constants in delta / pi^2 table style")
    return parser


_COMMANDS = {"eval": cmd_eval, "verify": cmd_verify, "catalog": cmd_catalog, "weight": cmd_weight}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # parse errors among them, which carry a position in args.expr
        _print_error(str(exc), args.json, getattr(args, "expr", None), getattr(exc, "position", None))
        return 2


def console_main() -> None:  # pragma: no cover - runs in subprocess tests
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at devnull so
        # the interpreter's final flush cannot raise again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    console_main()
