"""Correctness check of every answer against the mpmath reference.

Each answer gets a state -- ``ok``, ``wrong`` (the answer disagrees with the
reference) or ``failed`` (no answer: an exception, a traceback, or exit
code 2) -- and a cause.  Causes in ``KNOWN_DEFECTS`` are the defects the
program has today; any other cause makes the run incorrect.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from reference import Reference, matches, rel_dev, spec_terms

TOL = 1e-10  # verify's default --tol; a verdict passes at 10 * TOL
ZETA_MAX = 12  # verify's default --zeta-max

KNOWN_DEFECTS = {
    "zeta_table": "verify exits 2 when the closed form needs zeta(k) with k > --zeta-max "
                  "(every n >= 13 at the default 12)",
    "binding": "verify FAILs a correct closed form because binding it in doubles loses digits "
               "(large n and s, cancellation)",
    "quadrature": "verify FAILs a correct closed form because the quadrature is off the true "
                  "value or unconverged (the window ignores mu, e.g. x^(9)*exp(-1000*x))",
}


@dataclass(frozen=True)
class Verdict:
    state: str  # "ok" | "wrong" | "failed"
    cause: str = ""  # "" when ok; a KNOWN_DEFECTS key, or another word when unexpected
    detail: str = ""

    @property
    def known(self) -> bool:
        return self.state == "ok" or all(c in KNOWN_DEFECTS for c in self.cause.split("+"))


OK = Verdict("ok")


def check_catalog(req: dict, out: dict) -> Verdict:
    """A catalog check's known answer is pass: every table formula is right."""
    if "traceback" in out:
        return Verdict("failed", "exception", out["traceback"].strip().splitlines()[-1])
    if out["status"] != "pass":
        return Verdict("wrong", "catalog_verdict",
                       f"{req['entry']} {req['param']}: status {out['status']}, "
                       f"symbolic_equal {out['symbolic_equal']}")
    return OK


def _failure(out: dict) -> Verdict | None:
    if "traceback" in out:
        return Verdict("failed", "exception", out["traceback"].strip().splitlines()[-1])
    if "Traceback" in out.get("stderr", ""):
        return Verdict("failed", "traceback", out["stderr"].strip().splitlines()[-1])
    return None


def check_eval(req: dict, out: dict, ref: Reference) -> Verdict:
    """The answer is the closed form: bound at 60 digits, does it match?"""
    failure = _failure(out)
    if failure:
        return failure
    if out["rc"] != 0:
        return Verdict("failed", f"exit_{out['rc']}", out.get("stderr", "").strip()[-200:])
    doc = json.loads(out["stdout"])
    mu = Fraction(req["mu"])
    truth = ref.integral(spec_terms(req["terms"]), Fraction(req["s"]), req["n"], mu)
    if not matches(ref.bind_json(doc["closed_form_json"], mu), truth):
        return Verdict("wrong", "closed_form_json", req["expr"])
    if not matches(ref.bind_text(doc["closed_form"], mu), truth):
        return Verdict("wrong", "closed_form_text", req["expr"])
    if "at_mu_1" in doc and not matches(ref.bind_text(doc["at_mu_1"], mu), truth):
        return Verdict("wrong", "at_mu_1_text", req["expr"])
    return OK


_ZETA = re.compile(r"no numeric binding supplied for generator 'zeta\((\d+)\)'")


def check_verify(req: dict, out: dict, ref: Reference) -> Verdict:
    """The answer is the verdict; the right verdict is pass exactly when the
    printed closed form equals the integral."""
    failure = _failure(out)
    if failure:
        return failure
    if out["rc"] == 2:
        text = out["stdout"] + out["stderr"]
        m = _ZETA.search(text)
        cause = "zeta_table" if m and int(m.group(1)) > ZETA_MAX else "exit_2"
        return Verdict("failed", cause, f"{req['expr']}: {' '.join(text.split())[-160:]}")
    doc = json.loads(out["stdout"])
    mu = Fraction(req["mu"])
    truth = ref.integral(spec_terms(req["terms"]), Fraction(req["s"]), req["n"], mu)
    if not matches(ref.bind_text(doc["closed_form"], mu), truth):
        return Verdict("wrong", "closed_form", req["expr"])
    if doc["status"] == "pass":
        return OK
    closed_dev = rel_dev(doc["closed_value"], truth)
    quad_dev = rel_dev(doc["quadrature_value"], truth)
    causes = []
    if closed_dev > 5 * TOL:
        causes.append("binding")
    if quad_dev > 5 * TOL or not doc["quadrature_converged"]:
        causes.append("quadrature")
    if not causes:
        causes.append("binding" if closed_dev >= quad_dev else "quadrature")
    return Verdict("wrong", "+".join(causes),
                   f"{req['expr']}: closed value off by {closed_dev:.1e}, "
                   f"quadrature off by {quad_dev:.1e}")

