"""The nine-formula catalog and its verification harness.

The catalog is one table of records.  Each pairs a machine-built integral
description with the closed form as printed in the classical
Gradshteyn-Ryzhik tables (sections 4.331-4.353), transcribed *independently*
of the symbolic engine from two classical helpers alone, Gamma and psi at
integers and half-integers, so that comparing the two sides catches typos on
either one.  4.352.1-3 print one form, mu^(-nu) Gamma(nu) (psi(nu) - ln mu),
at nu, n+1 and n+1/2: the tables' brackets ``sum_{k<=n} 1/k - gamma - ln mu``
and ``2 sum_{k<=n} 1/(2k-1) - gamma - ln(4 mu)`` are psi - ln mu there.
Verification is two-fold: canonical ring equality, and numeric agreement
between the closed form and direct quadrature over a grid of decay rates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .evaluator import ClosedForm, IntegralSpec, PrefactorTerm, eval_general
from .oracle import Constants, check_arguments, compute_constants, quadrature, verdict
from .ring import (
    GAMMA,
    LOG2_CONST,
    LOG_MU_CONST,
    SQRT_PI_CONST,
    SymbolicConstant,
    rational_const,
    zeta_const,
)
from .special_values import ArgPoint

Param = Union[None, int, ArgPoint]

# pi^2 enters transcriptions as 6*zeta(2); delta is gamma + ln(mu).
_PI2 = rational_const(6) * zeta_const(2)
_DELTA = GAMMA + LOG_MU_CONST


def _classical_gamma(x: ArgPoint) -> SymbolicConstant:
    """Gamma(n) = (n-1)! and Gamma(n + 1/2) = (2n-1)!!/2^n sqrt(pi)."""
    if x.is_integer:
        return rational_const(math.factorial(x.twice // 2 - 1))
    n = (x.twice - 1) // 2
    double_fact = math.prod(range(1, 2 * n, 2))
    return rational_const(Fraction(double_fact, 2**n)) * SQRT_PI_CONST


def _classical_psi(x: ArgPoint) -> SymbolicConstant:
    """psi(n) = -gamma + sum_{k<n} 1/k and
    psi(n + 1/2) = -gamma - 2 ln 2 + 2 sum_{k<=n} 1/(2k-1)."""
    if x.is_integer:
        n = x.twice // 2
        h = sum((Fraction(1, k) for k in range(1, n)), Fraction(0))
        return -GAMMA + rational_const(h)
    n = (x.twice - 1) // 2
    odd = sum((Fraction(1, 2 * k - 1) for k in range(1, n + 1)), Fraction(0))
    return -GAMMA + rational_const(2 * odd) - rational_const(2) * LOG2_CONST


def _gamma_psi(nu: ArgPoint) -> ClosedForm:
    """mu^(-nu) Gamma(nu) (psi(nu) - ln mu), the form 4.352.1-3 print."""
    return ClosedForm([(nu.value, _classical_gamma(nu) * (_classical_psi(nu) - LOG_MU_CONST))])


class CatalogEntry(NamedTuple):
    """One table formula: builder, printed form, and display strings."""

    id: str
    integrand: str
    closed: str
    param_name: Optional[str]  # "n", "nu", or None
    build: Callable[[Param], IntegralSpec]
    printed_form: Callable[[Param], ClosedForm]


_CATALOG = (
    CatalogEntry(
        id="4.331.1",
        integrand="exp(-mu*x) * log(x)",
        closed="-delta/mu,  delta = gamma + ln mu",
        param_name=None,
        build=lambda _p: IntegralSpec.simple(1, 1),
        printed_form=lambda _p: ClosedForm([(1, -_DELTA)]),
    ),
    CatalogEntry(
        id="4.335.1",
        integrand="exp(-mu*x) * log(x)^2",
        closed="(1/mu) [pi^2/6 + delta^2]",
        param_name=None,
        build=lambda _p: IntegralSpec.simple(1, 2),
        printed_form=lambda _p: ClosedForm([(1, _PI2 / 6 + _DELTA**2)]),
    ),
    CatalogEntry(  # psi''(1) = -2 zeta(3) is folded into the bracket
        id="4.335.3",
        integrand="exp(-mu*x) * log(x)^3",
        closed="-(1/mu) [delta^3 + (1/2) pi^2 delta + 2 zeta(3)]",
        param_name=None,
        build=lambda _p: IntegralSpec.simple(1, 3),
        printed_form=lambda _p: ClosedForm(
            [(1, -(_DELTA**3 + _PI2 * _DELTA / 2 + rational_const(2) * zeta_const(3)))]
        ),
    ),
    CatalogEntry(
        id="4.352.1",
        integrand="x^(nu-1) * exp(-mu*x) * log(x)",
        closed="mu^(-nu) Gamma(nu) (psi(nu) - ln mu)",
        param_name="nu",
        build=lambda nu: IntegralSpec.simple(nu, 1),
        printed_form=_gamma_psi,
    ),
    CatalogEntry(
        id="4.352.2",
        integrand="x^(n) * exp(-mu*x) * log(x)",
        closed="n!/mu^(n+1) (sum_{k<=n} 1/k - gamma - ln mu)",
        param_name="n",
        build=lambda n: IntegralSpec.simple(n + 1, 1),
        printed_form=lambda n: _gamma_psi(ArgPoint(2 * n + 2)),
    ),
    CatalogEntry(
        id="4.352.3",
        integrand="x^(n-1/2) * exp(-mu*x) * log(x)",
        closed="sqrt(pi)(2n-1)!!/(2^n mu^(n+1/2)) [2 sum_{k<=n} 1/(2k-1) - gamma - ln(4 mu)]",
        param_name="n",
        build=lambda n: IntegralSpec.simple(ArgPoint(2 * n + 1), 1),
        printed_form=lambda n: _gamma_psi(ArgPoint(2 * n + 1)),
    ),
    CatalogEntry(
        id="4.352.4",
        integrand="x^(nu-1) * exp(-x) * log(x)",
        closed="Gamma'(nu)",
        param_name="nu",
        build=lambda nu: IntegralSpec.simple(nu, 1, mu=1),
        printed_form=lambda nu: ClosedForm([(0, _classical_gamma(nu) * _classical_psi(nu))]),
    ),
    CatalogEntry(
        id="4.353.1",
        integrand="(x - nu) * x^(nu-1) * exp(-x) * log(x)",
        closed="Gamma(nu)",
        param_name="nu",
        build=lambda nu: IntegralSpec(
            (PrefactorTerm(1, Fraction(1)), PrefactorTerm(0, -nu.value)), nu, 1, Fraction(1)
        ),
        printed_form=lambda nu: ClosedForm([(0, _classical_gamma(nu))]),
    ),
    CatalogEntry(
        id="4.353.2",
        integrand="(mu*x - n - 1/2) * x^(n-1/2) * exp(-mu*x) * log(x)",
        closed="(2n-1)!!/(2 mu)^n sqrt(pi/mu)",
        param_name="n",
        build=lambda n: IntegralSpec(
            (PrefactorTerm(1, Fraction(1), mu_power=1), PrefactorTerm(0, -Fraction(2 * n + 1, 2))),
            ArgPoint(2 * n + 1),
            1,
        ),
        printed_form=lambda n: ClosedForm([(Fraction(2 * n + 1, 2), _classical_gamma(ArgPoint(2 * n + 1)))]),
    ),
)


def catalog() -> list[CatalogEntry]:
    return list(_CATALOG)


DEFAULT_MU_GRID = (0.5, 1.0, 2.0, 10.0)
DEFAULT_NU_VALUES = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(7, 2),
)


def param_grid(entry: CatalogEntry, max_n: int = 4) -> list[Param]:
    """The entry's parameter values: None, n = 0..max_n, or nu in DEFAULT_NU_VALUES."""
    if entry.param_name is None:
        return [None]
    if entry.param_name == "n":
        return list(range(max_n + 1))
    return [ArgPoint.of(v) for v in DEFAULT_NU_VALUES]


class CatalogCheck(NamedTuple):
    """Verification outcome for one (entry, parameter) pair.  ``error`` names the mu and
    the cause when a value or the integrand's peak lies outside the float range; the
    check then fails, with ``numeric_rel_err`` infinite (null in the report)."""

    id: str
    params: dict
    symbolic_equal: bool
    numeric_rel_err: float
    converged: bool
    status: str  # "pass" or "fail"
    error: Optional[str] = None

    def report_dict(self) -> dict:
        report = {
            "id": self.id,
            "params": self.params,
            "symbolic_equal": self.symbolic_equal,
            "numeric_rel_err": None if self.error else self.numeric_rel_err,
            "status": self.status,
        }
        if self.error:
            report["error"] = self.error
        return report


def check_entry(
    entry: CatalogEntry,
    param: Param,
    table: Constants,
    mu_grid: Sequence[float] = DEFAULT_MU_GRID,
    quad_tol: float = 1e-10,
) -> CatalogCheck:
    spec = entry.build(param)
    computed = eval_general(spec)
    printed = entry.printed_form(param)

    if spec.mu is not None:
        # mu is pinned (always to 1 in this catalog): compare specialized constants.
        symbolic_equal = computed.at_mu_one() == printed.at_mu_one()
        mu_values = [float(spec.mu)]
    else:
        symbolic_equal = computed == printed
        mu_values = list(mu_grid)

    for mu in mu_values:  # a bad argument raises, before any check
        check_arguments(mu, quad_tol)
    worst = 0.0
    all_converged = all_passed = True
    error = None
    for mu in mu_values:
        try:
            closed_value = computed.evaluate(mu, table)
            quad = quadrature(spec, mu, rel_tol=quad_tol)
        except ValueError as exc:  # so outside the float range; the other checks still run
            error, worst, all_converged = f"at mu = {mu:g}, {exc}", math.inf, False
            break
        rel_err, passed = verdict(closed_value, quad, quad_tol)
        all_converged = all_converged and quad.converged
        all_passed = all_passed and passed
        worst = max(worst, rel_err)

    ok = symbolic_equal and all_passed and error is None
    return CatalogCheck(
        id=entry.id,
        # n reports as an int, nu as its text ("3/2")
        params={} if param is None else {entry.param_name: param if entry.param_name == "n" else str(param)},
        symbolic_equal=symbolic_equal,
        numeric_rel_err=worst,
        converged=all_converged,
        status="pass" if ok else "fail",
        error=error,
    )


def run_catalog(
    mu_grid: Sequence[float] = DEFAULT_MU_GRID,
    max_n: int = 4,
    quad_tol: float = 1e-10,
) -> list[CatalogCheck]:
    """Verify every catalog entry over its parameter grid."""
    table = compute_constants()
    return [
        check_entry(entry, param, table, mu_grid, quad_tol)
        for entry in _CATALOG
        for param in param_grid(entry, max_n)
    ]
