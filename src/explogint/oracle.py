"""Independent floating-point ground truth.

This module supplies numeric values of the ring generators (via the
Hurwitz zeta function), high-accuracy quadrature over the integral class,
and the rule by which a closed form's value passes against quadrature.
None of it shares a code path with the exact engine in
:mod:`special_values` / :mod:`evaluator`, so agreement between the two
sides is evidence rather than tautology.

Quadrature samples only where the integrand lives: its window sits around
the integrand's peak, each end where a closed-form bound on the tail beyond
it is below 1e-17 of the peak.  The error estimate adds both tail bounds
and a rounding bound, and ``converged`` means it is at most the relative
tolerance times the value.

All routines work in ordinary 64-bit floats; the advertised tolerances are
calibrated to that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

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


def euler_gamma_value() -> float:
    """Euler's constant from H_N - ln N with Euler-Maclaurin corrections.

    gamma = H_N - ln N - 1/(2N) + sum_j B_2j / (2j N^2j), truncated after
    B_8; at N = 100 the first omitted term is ~7e-23, far below double
    precision.
    """
    h = math.fsum(1.0 / k for k in range(1, 101))
    x = 100.0
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


# Tolerances the pass rule can honour: at least a few ulps, and small enough
# that 10 * tol < 1, so a wrong value (rel err ~ 1) can never pass.
MIN_REL_TOL = 1e-13
MAX_REL_TOL = 1e-2
MAX_NODES = 2**20  # quadrature's node budget
# ln 2 split as in fdlibm's exp: k * _LN2_HI is exact for |k| < 2^11.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _log_tail(beta: float, kappa: float, n: int) -> float:
    # ln integral_0^inf e^(-kappa t) (beta + t)^n dt = ln(n!/kappa^(n+1) sum_{j<=n} (beta kappa)^j/j!)
    acc = 1.0
    for j in range(n, 0, -1):
        acc = 1.0 + acc * beta * kappa / j
    return math.log(math.factorial(n)) + math.log(acc) - (n + 1) * math.log(kappa)


def _window(logs, n: int, log_mu: float, a: float, log_target: float):
    """Ends a < b and the sum of the two tail bounds, each at most e^log_target.

    ``logs`` holds (ln |c_j|, r_j) of F(u) = sum_j |c_j| e^(r_j u - mu e^u) |u|^n >= |f(u)|.
    By e^(-mu e^u) <= 1 left of a, the tangent of r_j u - mu e^u at b right of
    b, and |u| <= |end| + |u - end|, the integral of F beyond a is at most
    sum_j |c_j| e^(r_j a) T(|a|, r_j), and beyond b sum_j |c_j| e^(r_j b - mu e^b)
    T(|b|, mu e^b - r_j), T = exp(_log_tail).  Fixed-point steps move a out from
    where given, and b from mu e^b = max r_j + 1, until each bound fits.
    """

    def excess(u, decay):  # ln(bound / e^log_target) beyond u; decay is 0 left of the window
        xs = [lc + r * u - decay + _log_tail(abs(u), abs(decay - r), n) for lc, r in logs]
        top = max(xs)
        return top + math.log(sum(math.exp(x - top) for x in xs)) - log_target

    while (over := excess(a, 0.0)) > 0:
        a -= (over + 1.0) / min(r for _, r in logs)
    tails = math.exp(log_target + over)
    b = math.log(max(r for _, r in logs) + 1.0) - log_mu
    while (over := excess(b, math.exp(b + log_mu))) > 0:
        b += math.log1p((over + 1.0) / math.exp(b + log_mu))  # mu e^b grows by the excess
    return a, b, tails + math.exp(log_target + over)


def quadrature(spec: IntegralSpec, mu_value: float, rel_tol: float = 1e-10) -> QuadratureResult:
    """Trapezoid rule on the u = ln x axis, over a window sized by tail bounds.

    After x = e^u the integrand f(u) = sum_j c_j mu^(mp_j) e^(r_j u - mu e^u) u^n,
    r_j = s + p_j, decays exponentially to the left and doubly exponentially to
    the right, so the rule converges exponentially in the step (Trefethen &
    Weideman, SIAM Review 56(3), 2014).  h starts at <= 1/2 with at least 64
    panels and halves at least twice, within MAX_NODES nodes.  The error estimate
    is the last halving's change plus the tail and rounding bounds, and
    ``converged`` means it is at most ``rel_tol * |value|``; when only the tails
    do not fit, the window widens.  Raises ValueError when a prefactor
    coefficient or the peak lies beyond the float range.
    """
    if not 0 < mu_value < math.inf:
        raise ValueError("mu must be positive and finite")
    if not MIN_REL_TOL <= rel_tol <= MAX_REL_TOL:
        raise ValueError(f"rel_tol must lie in [{MIN_REL_TOL}, {MAX_REL_TOL}], got {rel_tol}")
    n, log_mu = spec.log_power, math.log(mu_value)
    pairs = []
    for pf in spec.prefactor:
        try:
            c = float(pf.coeff)
        except OverflowError:
            raise ValueError(f"prefactor coefficient {pf.coeff} lies outside the float range") from None
        pairs.append((c * mu_value**pf.mu_power, float(spec.s.value) + pf.power))
    pairs = [(c, r) for c, r in pairs if c]  # a coefficient that rounds to 0.0 adds nothing
    if not pairs:
        raise ValueError("every prefactor coefficient is below the float range")
    logs = [(math.log(abs(c)), r) for c, r in pairs]
    # F (see _window) peaks near the peak of some e^(r_j u - mu e^u) or, for
    # n > 0, of some e^(r_j u) |u|^n on u < 0 (F(0) = 0 then).
    guesses = [math.log(r) - log_mu for _, r in pairs]
    if n:
        guesses = [u for u in guesses if u] + [-n / r for _, r in pairs]
    peak, u_peak = max((lc + r * u - math.exp(u + log_mu) + (n and n * math.log(abs(u))), u)
                       for u in guesses for lc, r in logs)
    if not (abs(peak) < 700.0 and log_mu > -700.0):
        raise ValueError(f"decay rate mu = {mu_value:.6g} puts the integrand's peak (near "
                         f"1e{peak / math.log(10.0):+.0f}) or x = 1/mu outside the float range")
    # Nodes are dyadic, so r_j u - shift is exact and a node is f(u) / e^shift to 2^-53
    # (|exponent| + 2 mu e^u + n + J + 8) relatively; ``rounding`` takes that at the peak.
    k = round(peak / math.log(2.0))
    shift, correction = k * _LN2_HI, math.expm1(-k * _LN2_LO)  # e^shift = 2^k (1 + correction)
    rounding = 2.0**-53 * (8 + len(pairs) + (n and n * (1 + abs(math.log(abs(u_peak)))))
                           + 2 * math.exp(u_peak + log_mu) + max(abs(lc) for lc, _ in logs))
    scaled = [(lc - shift, r) for lc, r in logs]  # F / e^shift

    def g(u, exp=math.exp):  # f(u) / e^shift; exp is a fast local
        decay = mu_value * exp(u)
        total = 0.0
        for c, r in pairs:
            total += c * exp(r * u - shift - decay)
        if n and total:
            total *= u**n
        return total

    log_target, nodes, converged = math.log(1e-17), 0, False
    while not converged:
        window = _window(scaled, n, log_mu, u_peak, log_target)
        a, b = math.floor(window[0] * 64) / 64, math.ceil(window[1] * 64) / 64
        panels = 64
        while (b - a) / panels > 0.5:
            panels *= 2
        if nodes and nodes + panels + 1 > MAX_NODES:
            break
        tails, h = window[2], (b - a) / panels
        vals = [0.5 * g(a), 0.5 * g(b)] + [g(a + i * h) for i in range(1, panels)]
        estimate, l1 = h * math.fsum(vals), h * sum(map(abs, vals))  # l1 ~ integral of |f|
        nodes += panels + 1

        refinements, err = 0, math.inf
        while nodes + panels <= MAX_NODES:
            vals = [g(a + (i + 0.5) * h) for i in range(panels)]
            new_estimate = 0.5 * (estimate + h * math.fsum(vals))
            nodes += panels
            panels *= 2
            h *= 0.5
            err = abs(new_estimate - estimate) + rounding * l1
            estimate = new_estimate
            refinements += 1
            allowed = rel_tol * abs(estimate)
            # done, or the step fits and only the tails do not: widen the window
            if refinements >= 2 and (err + tails <= allowed or 0 < err <= 0.5 * allowed):
                break
        else:  # out of nodes
            break
        converged = err + tails <= allowed
        log_target = math.log(0.25 * allowed)
    value = math.ldexp(estimate + estimate * correction, k)
    return QuadratureResult(value, math.ldexp(err + tails, k), nodes, converged)


def verdict(closed_value: float, quad: QuadratureResult, rel_tol: float) -> tuple[float, bool]:
    """Relative error of a closed form's value against quadrature, and whether
    it passes: the quadrature converged and the error is at most 10 * rel_tol."""
    rel_err = abs(closed_value - quad.value) / max(abs(closed_value), 1e-300)
    return rel_err, quad.converged and rel_err <= 10.0 * rel_tol
