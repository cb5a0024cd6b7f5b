"""Independent floating-point ground truth.

This module supplies numeric values of the ring generators (via the
Hurwitz zeta function), high-accuracy quadrature over the integral class,
and the rule by which a closed form's value passes against quadrature.
None of it shares a code path with the exact engine in
:mod:`special_values` / :mod:`evaluator`, so agreement between the two
sides is evidence rather than tautology.

All routines work in ordinary 64-bit floats; the advertised tolerances are
calibrated to that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .evaluator import IntegralSpec
from .ring import EULER_GAMMA, LOG2, SQRT_PI, Generator, zeta_gen

# Bernoulli numbers B_2 .. B_16 (exact; converted to float where used).
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


def euler_gamma_value(n_terms: int = 100) -> float:
    """Euler's constant from H_N - ln N with Euler-Maclaurin corrections.

    gamma = H_N - ln N - 1/(2N) + sum_j B_2j / (2j N^2j), truncated after
    B_8; at N = 100 the first omitted term is ~7e-23, far below double
    precision.
    """
    h = math.fsum(1.0 / k for k in range(1, n_terms + 1))
    x = float(n_terms)
    corrections = [
        float(_BERNOULLI[2 * j]) / (2 * j * x ** (2 * j)) for j in range(1, 5)
    ]
    return math.fsum([h, -math.log(x), -0.5 / x, *corrections])


def hurwitz_zeta(z: float, q: float) -> float:
    """zeta(z, q) = sum_{n>=0} (n+q)^(-z) for z > 1, q > 0.

    Euler-Maclaurin: a direct head sum up to N, the integral tail
    (N+q)^(1-z)/(z-1), the half-term, and Bernoulli corrections
    B_2j/(2j)! (z)_{2j-1} (N+q)^(1-z-2j).  N grows until the last
    correction is below 1e-17 of the result.
    """
    if z <= 1:
        raise ValueError(f"hurwitz_zeta needs z > 1, got {z}")
    if q <= 0:
        raise ValueError(f"hurwitz_zeta needs q > 0, got {q}")
    n = max(0, math.ceil(max(24.0, 3.0 * z) - q))
    for _ in range(8):
        nq = n + q
        head = math.fsum((j + q) ** (-z) for j in range(n))
        pieces = [head, nq ** (1.0 - z) / (z - 1.0), 0.5 * nq ** (-z)]
        rising = z  # (z)_{2j-1} built incrementally
        power = nq ** (-z - 1.0)
        factorial = 2.0  # (2j)!
        last = math.inf
        for two_j in range(2, 17, 2):
            term = float(_BERNOULLI[two_j]) / factorial * rising * power
            pieces.append(term)
            last = abs(term)
            rising *= (z + two_j - 1.0) * (z + two_j)
            power /= nq * nq
            factorial *= (two_j + 1.0) * (two_j + 2.0)
        result = math.fsum(pieces)
        if last <= 1e-17 * abs(result):
            return result
        n = 2 * n + 16
    raise ArithmeticError(f"hurwitz_zeta({z}, {q}) failed to converge")  # pragma: no cover


class ConstantsTable(NamedTuple):
    """Numeric values of the ring generators; initialize once, read many."""

    gamma: float
    log2: float
    sqrt_pi: float
    zeta: Mapping[int, float]

    def bindings(self) -> dict[Generator, float]:
        """Bindings of every generator but log_mu, which ClosedForm.evaluate binds."""
        out: dict[Generator, float] = {
            EULER_GAMMA: self.gamma,
            LOG2: self.log2,
            SQRT_PI: self.sqrt_pi,
        }
        for k, v in self.zeta.items():
            out[zeta_gen(k)] = v
        return out


def compute_constants(max_zeta: int = 12) -> ConstantsTable:
    if max_zeta < 2:
        raise ValueError("max_zeta must be at least 2")
    zetas = {k: hurwitz_zeta(float(k), 1.0) for k in range(2, max_zeta + 1)}
    return ConstantsTable(
        gamma=euler_gamma_value(),
        log2=math.log(2.0),
        sqrt_pi=math.sqrt(math.pi),
        zeta=zetas,
    )


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


class QuadratureResult(NamedTuple):
    value: float
    abs_error_estimate: float
    nodes_used: int
    converged: bool


# e^(-mu e^u) is capped where mu e^u = 700; beyond that the integrand is
# below 1e-300 and the tail is provably negligible.
_EXP_CAP = 700.0
# Tolerances the pass rule can honour: at least a few ulps, and small enough
# that 10 * tol < 1, so a wrong value (rel err ~ 1) can never pass.
MIN_REL_TOL = 1e-13
MAX_REL_TOL = 1e-2


def _integrand(spec: IntegralSpec, mu: float) -> Callable[[float], float]:
    # After x = e^u the integral becomes
    #   integral_R sum_j c_j mu^(mp_j) e^((s + p_j) u) e^(-mu e^u) u^n du,
    # smooth, doubly exponentially decaying to the right and exponentially
    # (rate s + min p_j) to the left.
    pairs = [
        (float(pf.coeff) * mu**pf.mu_power, float(spec.s.value) + pf.power)
        for pf in spec.prefactor
    ]
    n = spec.log_power

    def g(u: float) -> float:
        decay = mu * math.exp(u)
        total = 0.0
        for coeff, rate in pairs:
            w = rate * u - decay
            if w > -745.0:
                total += coeff * math.exp(w)
        if n and total:
            total *= u**n
        return total

    return g


def _left_cutoff(s_eff: float, n: int) -> float:
    # Smallest L with e^(-s_eff L) L^n below ~1e-26 relative to the
    # coefficient scale; fixed-point iteration on L = (60 + n ln L)/s_eff.
    L = max(6.0, 60.0 / s_eff)
    for _ in range(8):
        L = max(6.0, (60.0 + n * math.log(max(L, 2.0))) / s_eff)
    return L


def quadrature(
    spec: IntegralSpec,
    mu_value: float,
    rel_tol: float = 1e-10,
    max_nodes: int = 2**20,
) -> QuadratureResult:
    """Trapezoid rule on the u = ln x axis with step halving.

    The substitution makes the trapezoid rule spectrally accurate, so
    successive halvings converge very quickly; iteration stops when two
    refinements agree to ``rel_tol`` relatively.
    """
    if not 0 < mu_value < math.inf:
        raise ValueError("mu must be positive and finite")
    if not MIN_REL_TOL <= rel_tol <= MAX_REL_TOL:
        raise ValueError(f"rel_tol must lie in [{MIN_REL_TOL}, {MAX_REL_TOL}], got {rel_tol}")
    g = _integrand(spec, mu_value)
    s_eff = float(spec.s.value) + min(pf.power for pf in spec.prefactor)
    a = -_left_cutoff(s_eff, spec.log_power)
    b = math.log(_EXP_CAP / mu_value)

    panels = 64
    while (b - a) / panels > 0.5:
        panels *= 2
    h = (b - a) / panels
    total = math.fsum(
        [0.5 * g(a), 0.5 * g(b)] + [g(a + i * h) for i in range(1, panels)]
    )
    estimate = h * total
    nodes = panels + 1

    refinements = 0
    err = math.inf
    while nodes + panels <= max_nodes:
        mid_sum = math.fsum(g(a + (i + 0.5) * h) for i in range(panels))
        new_estimate = 0.5 * estimate + 0.5 * h * mid_sum
        nodes += panels
        panels *= 2
        h *= 0.5
        err = abs(new_estimate - estimate)
        estimate = new_estimate
        refinements += 1
        if refinements >= 2 and err <= rel_tol * max(abs(estimate), 1e-300):
            return QuadratureResult(estimate, err, nodes, True)
    return QuadratureResult(estimate, err, nodes, False)


def verdict(closed_value: float, quad: QuadratureResult, rel_tol: float) -> tuple[float, bool]:
    """Relative error of a closed form's value against quadrature, and whether
    it passes: the quadrature converged and the error is at most 10 * rel_tol."""
    rel_err = abs(closed_value - quad.value) / max(abs(closed_value), 1e-300)
    return rel_err, quad.converged and rel_err <= 10.0 * rel_tol
