"""Independent ground truth: constants, quadrature and the pass rule.

This module supplies one table of the ring generators' values as ints at
2^-BITS, the only input binding reads, each zeta(k) built on its first
read, ln of a double in the same arithmetic, high-accuracy quadrature over
the integral class, and the rule by which a closed form's value passes
against quadrature.  Of the package it imports at run time only the
generator identities and the binding precision ``BITS``, from the leaf
module :mod:`generators`, so it loads none of the ring's algebra, shares
no code path with the exact engine in :mod:`special_values` /
:mod:`evaluator`, and agreement between the two sides is evidence.

Quadrature is one trapezoid sum at a step chosen beforehand from a bound
on the integrand in a strip around the real axis, over a window whose ends
sit where closed-form tail bounds fall below 1e-17 of the peak.  The error
estimate adds the step bound, both tail bounds and a rounding bound, and
``converged`` means it is at most the relative tolerance times the value.

Quadrature works in ordinary 64-bit floats; the advertised tolerances are
calibrated to that.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .generators import BITS, EULER_GAMMA, LOG2, SQRT_PI

if TYPE_CHECKING:
    from .evaluator import IntegralSpec
    from .generators import Generator


def _arc(p: int, q: int, sign: int) -> int:
    """atan(p/q) (sign = -1) or atanh(p/q) (sign = 1) at 2^-BITS, for 0 <= p/q <= 1/3:
    the sum over k of sign^k (p/q)^(2k+1) / (2k + 1)."""
    total, term, k = 0, (p << BITS) // q, 1
    while term:
        total, term, k = total + term // k, sign * term * p * p // (q * q), k + 2
    return total


_LN2 = 2 * _arc(1, 3, 1)  # ln 2 at 2^-BITS


def fixed_log(x: float) -> int:
    """ln x at 2^-BITS, for a finite double x > 0, from the constants' own ln 2: x = m 2^e
    with m in [2/3, 4/3), and ln m = 2 atanh((m - 1)/(m + 1)) with |(m - 1)/(m + 1)| <= 1/5."""
    m, e = math.frexp(x)
    if m < 2 / 3:
        m, e = 2 * m, e - 1
    p, q = m.as_integer_ratio()
    half = _arc(p - q, p + q, 1) if p >= q else -_arc(q - p, p + q, 1)
    return 2 * half + e * _LN2


class Constants:
    """Generator values as ints at 2^-BITS in ``fixed``, a read-only view that binding reads
    (``ring.binder``); a block keeps its value beside the table it was bound under (``ring.fixed_values``)."""

    __slots__ = ("fixed",)

    def __init__(self, fixed: dict[Generator, int]):
        self.fixed = MappingProxyType(fixed)


@lru_cache(maxsize=None)
def _borwein() -> tuple[int, list[int]]:
    # eta(s) = sum_(k<n) (-1)^k (d_n - d_k)/((k+1)^s d_n) to within 3 (3 + sqrt 8)^-n < 2^(-5n/2),
    # with integer weights d_k = sum_(i<=k) n (n+i-1)! 4^i/((n-i)! (2i)!) that serve every s
    n, f = BITS // 2, math.factorial
    d = list(accumulate(n * f(n + i - 1) * 4**i // (f(n - i) * f(2 * i)) for i in range(n + 1)))
    return d[n], [(-1) ** k * (d[n] - d[k]) << BITS for k in range(n)]


class _ZetaOnRead(dict):
    """A dict that builds zeta(s) = eta(s)/(1 - 2^(1-s)) at 2^-BITS when a missing one is
    read by subscript, by Borwein's alternating series (CMS Conf. Proc. 27, 2000)."""

    def __missing__(self, g: Generator) -> int:
        if (s := getattr(g, "k", 0)) < 2:
            raise KeyError(g)
        d_n, weights = _borwein()
        eta = sum(w // (k + 1) ** s for k, w in enumerate(weights))
        self[g] = value = (eta << s - 1) // (d_n * ((1 << s - 1) - 1))
        return value


@lru_cache(maxsize=None)
def compute_constants() -> Constants:
    """The process table: gamma, log2 and sqrt_pi, built on the first call, and each
    zeta(k), built when binding first reads it; the same table on every call.

    Each is an int at 2^-BITS, a few hundred units off at most (measured against
    mpmath): ln 2 and pi by series, gamma by Brent-McMillan's B1 (Math. Comp. 34,
    1980) at N = 2^j, and zeta(k) by :class:`_ZetaOnRead`.
    """
    pi = 16 * _arc(1, 5, -1) - 4 * _arc(1, 239, -1)  # Machin's formula
    j = (BITS // 5).bit_length()  # pi e^(-4N) < 2^-BITS
    a = u = -j * _LN2  # A_0 = -ln N, A_k = (A_(k-1) N^2/k + B_k)/k
    b = v = 1 << BITS  # B_0 = 1, B_k = (N^k/k!)^2; gamma = sum A_k / sum B_k to within pi e^(-4N)
    for k in range(1, 5 << j):  # the terms fall below e^(-4N) before k = 5N
        b = (b << 2 * j) // (k * k)
        a = ((a << 2 * j) // k + b) // k
        u, v = u + a, v + b
    return Constants(_ZetaOnRead({EULER_GAMMA: (u << BITS) // v, LOG2: _LN2, SQRT_PI: math.isqrt(pi << BITS)}))


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


@lru_cache(maxsize=None)
def _log_factorial(n: int) -> float:
    return math.log(math.factorial(n))


def _log_beyond(logs, n: int, pad: float, u: float, decay: float) -> float:
    # ln sum_j |c_j| e^(r_j u - decay) integral_0^inf e^(-kappa_j t) (beta + t)^n dt, beta = |u| + pad, with
    # kappa_j = r_j left of u (decay = 0) and mu e^u - r_j > 0 right of u (decay = mu e^u); each integral is
    # n!/kappa_j^(n+1) sum_{k<=n} (beta kappa_j)^k/k!, summed by Horner's rule
    log_fact, beta, xs = _log_factorial(n), abs(u) + pad, []
    for lc, r in logs:
        kappa, acc = abs(decay - r), 1.0
        for j in range(n, 0, -1):
            acc = 1.0 + acc * beta * kappa / j
        x = lc + r * u - decay + (log_fact + math.log(acc) - (n + 1) * math.log(kappa))
        if len(logs) == 1:  # x - x is 0, or nan for an infinite x, as the log-sum-exp below gives
            return x + (x - x)
        xs.append(x)
    top, total = max(xs), 0.0
    for x in xs:  # left to right, as sum() did before CPython 3.12, so the bits hold on every version
        total += math.exp(x - top)
    return top + math.log(total)


def _left_end(logs, n: int, a: float, beyond: float, log_target: float) -> tuple[float, float]:
    # _window's left end, moved out from a, where _log_beyond reads ``beyond``, and its tail bound
    low = min(r for _, r in logs)
    while (over := beyond - log_target) > 0 or low * abs(a) < n:
        a = a - (over + 1.0) / low if over > 0 else -(n + 1.0) / low
        beyond = _log_beyond(logs, n, 0.0, a, 0.0)
    return a, math.exp(log_target + over)


def _window(logs, n: int, log_mu: float, a: float, beyond: float, log_target: float):
    """Ends a < b and the sum of the two tail bounds, each at most e^log_target; ``beyond``
    is _log_beyond's bound at a.

    ``logs`` holds (ln |c_j|, r_j) of F(u) = sum_j |c_j| e^(r_j u - mu e^u) |u|^n >= |f(u)|.
    By e^(-mu e^u) <= 1, the tangent of -mu e^u at b and |u| <= |end| + t,
    F(a - t) <= G_a(t) = sum_j |c_j| e^(r_j (a - t)) (|a| + t)^n and F(b + t) <= G_b(t) =
    sum_j |c_j| e^(r_j b - mu e^b - (mu e^b - r_j) t) (|b| + t)^n, whose integrals over
    t > 0 are _log_beyond's.  The ends also move until r_j |a| >= n and
    (mu e^b - r_j) |b| >= n: then G_a and G_b decrease, a node beyond an end at
    t >= kh adds at most h G(kh) <= the integral of G over [(k - 1)h, kh], and so
    the tail bounds cover the nodes beyond the window too.  Fixed-point steps move
    a out from where given and b from mu e^b = max r_j + 1.
    """
    (a, tails), high = _left_end(logs, n, a, beyond, log_target), max(r for _, r in logs)
    b = math.log(high + 1.0) - log_mu
    while (over := _log_beyond(logs, n, 0.0, b, decay := math.exp(b + log_mu)) - log_target) > 0 \
            or (decay - high) * abs(b) < n:
        b += math.log1p((over + 1.0 if over > 0 else n) / decay)  # mu e^b grows by that much
    return a, b, tails + math.exp(log_target + over)


def _strip_mass(logs, n: int, log_mu: float, pad: float, lo: float) -> float:
    """M >= the integral of F_pad(u) = sum_j |c_j| e^(r_j u - mu cos(pad) e^u) (|u| + pad)^n.

    Each summand's logarithm phi_j is concave on u <= 0 and on u >= 0, so on a grid
    cell inside one half it lies below the tangents at both ends, and the cell adds
    the integral of e^(the lower tangent), a closed form.  Cells, at most twice
    1 / sqrt(1 - phi_j''), run through u = 0 from lo to where
    mu cos(pad) e^u = 2 max r_j + 4, and _log_beyond bounds the rest.  The grid walk
    writes one table of cells that every summand reads: a row holds x, the cell's width
    up to x, mu cos(pad) e^x, n ln(|x| + pad) and its slopes left and right of x.
    """
    high, log_mu = max(r for _, r in logs), log_mu + math.log(math.cos(pad))
    hi = math.log(2 * high + 4) - log_mu
    mu, exp, expm1, log, x = math.exp(log_mu), math.exp, math.expm1, math.log, min(lo, hi)
    rows, width = [], 0.0
    while True:
        decay, w = mu * exp(x), abs(x) + pad
        g = n / w  # the slope of n ln(|x| + pad), up to its sign
        rows.append((x, width, decay, n * log(w), -g if x <= 0 else g, -g if x < 0 else g))
        if not x < hi:
            break
        step = 2.0 / math.sqrt(1.0 + decay + n / w**2)
        nx = 0.0 if x < 0.0 < x + step else x + step
        x, width = nx, nx - x
    total = exp(_log_beyond(logs, n, pad, rows[0][0], 0.0)) + exp(_log_beyond(logs, n, pad, x, decay))
    if len(rows) == 1:  # no cell
        return total
    for lc, r in logs:
        x, _, decay, log_w, _, right = rows[0]
        p, dp = lc + r * x - decay + log_w, r - decay + right
        ep = exp(p)
        for x, width, decay, log_w, left, right in rows[1:]:  # the cell from p to x; the tangents cross at p + t
            phi, slope = lc + r * x - decay + log_w, r - decay
            dx, ephi = slope + left, exp(phi)
            t = (phi - p - dx * width) / (dp - dx) if dp > dx else 0.5 * width
            if t < 0.0:
                t = 0.0
            elif t > width:
                t = width
            total += ep * (expm1(dp * t) / dp if dp else t)
            total += ephi * (expm1(-dx * (width - t)) / -dx if dx else width - t)
            p, dp, ep = phi, slope + right, ephi
    return total


def check_arguments(mu_value: float, rel_tol: float) -> None:
    """ValueError unless mu_value is positive and finite and rel_tol lies in [MIN_REL_TOL, MAX_REL_TOL]."""
    if not 0 < mu_value < math.inf:
        raise ValueError("mu must be positive and finite")
    if not MIN_REL_TOL <= rel_tol <= MAX_REL_TOL:
        raise ValueError(f"rel_tol must lie in [{MIN_REL_TOL}, {MAX_REL_TOL}], got {rel_tol}")


def quadrature(spec: IntegralSpec, mu_value: float, rel_tol: float = 1e-10) -> QuadratureResult:
    """Trapezoid rule on the u = ln x axis, in one pass at a step chosen beforehand.

    After x = e^u the integrand f(u) = sum_j c_j mu^(mp_j) e^(r_j u - mu e^u) u^n,
    r_j = s + p_j, is entire, and |f| <= F_pad on the strip |Im u| <= pad < pi/2
    (see _strip_mass).  So the trapezoid sum over all nodes kh is within
    2M / (e^(2 pi pad / h) - 1) of the integral, M >= the integral of F_pad
    (Trefethen & Weideman, SIAM Review 56(3), 2014, Thm 5.1), and
    h = 2 pi pad / ln(1 + 2M / eps) makes that eps, with pad the best of a few.
    eps is 1e-4 of ``rel_tol * |value|``: that costs a third more nodes than
    half of it, and the value is then good to about 1e-14 at the default tol.
    The error estimate adds the step bound, _window's tail bounds and a
    rounding bound, the one estimated part; ``converged`` means it is at most
    ``rel_tol * (|value| - estimate)``.  |value| is first Laplace's estimate at
    the peak; if that does not converge and the sum can be told from 0, one more
    sum is made at the step |value| - estimate asks for.  A sum has at most
    MAX_NODES nodes; a coefficient or peak beyond the float range raises ValueError.
    """
    check_arguments(mu_value, rel_tol)
    n, log_mu, s = spec.log_power, math.log(mu_value), float(spec.s.value)
    pairs = []
    for pf in spec.prefactor:
        try:
            c = float(pf.coeff)
        except OverflowError:
            raise ValueError(f"prefactor coefficient {pf.coeff} lies outside the float range") from None
        try:
            pairs.append((c * mu_value**pf.mu_power, s + pf.power))
        except OverflowError:
            raise ValueError(f"the prefactor's mu^{pf.mu_power} lies outside the float range "
                             f"(decay rate mu = {mu_value:.6g})") from None
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
    if log_mu <= -700.0:
        raise ValueError(f"decay rate mu = {mu_value:.6g} puts x = 1/mu outside the float range")
    if abs(peak) >= 700.0:
        raise ValueError(f"the integrand's peak, near 1e{peak / math.log(10.0):+.0f} at x near "
                         f"e^{u_peak:.4g}, lies outside the float range (decay rate mu = {mu_value:.6g})")
    # Nodes are multiples of an 8-bit h, so r_j u - shift is exact and a term is
    # c_j e^(...) / e^shift to 2^-53 (|exponent| + 2 mu e^u + n + J + 8) relatively;
    # ``rounding`` takes that at the peak, to scale the terms' sizes before they cancel.
    k = round(peak / math.log(2.0))
    shift, correction = k * _LN2_HI, math.expm1(-k * _LN2_LO)  # e^shift = 2^k (1 + correction)
    rounding = 2.0**-53 * (8 + len(pairs) + (n and n * (1 + abs(math.log(abs(u_peak)))))
                           + 2 * math.exp(u_peak + log_mu) + max(abs(lc) for lc, _ in logs))
    scaled = [(lc - shift, r) for lc, r in logs]  # F / e^shift
    beyond = _log_beyond(scaled, n, 0.0, u_peak, 0.0)  # where both _left_end walks start
    a, b, tails = _window(scaled, n, log_mu, u_peak, beyond, math.log(1e-17))
    guess = math.exp(peak - shift) * math.sqrt(2 * math.pi / (math.exp(u_peak + log_mu) + (n and n / u_peak**2)))

    def step(pad, mass, v):  # the step at which the bound for this pad is 1e-4 of rel_tol * v
        return 2 * math.pi * pad / math.log1p(2e4 * mass / (rel_tol * v))

    # Wider pads first; a narrower one is skipped when even M = guess could not beat the
    # best step.  M grows about as (cos pad)^(-max r_j), which the last pad keeps below e^25.
    masses, best, lo = [], 0.0, _left_end(scaled, n, u_peak, beyond, math.log(1e-3))[0]
    for pad in (1.5, 1.1, 0.7, min(0.35, 7.0 / math.sqrt(max(r for _, r in pairs)))):
        if step(pad, guess, guess) > best:
            try:
                masses.append((pad, mass := _strip_mass(scaled, n, log_mu, pad, lo)))
            except OverflowError:  # beyond the float range: too wide a strip for this integrand
                continue
            best = max(best, step(pad, mass, guess))

    def attempt(v):  # one sum at the step v asks for: (value, error bound, nodes)
        h = max(step(pad, mass, v) for pad, mass in masses)
        e = math.frexp(h)[1] - 8
        h = max(math.ldexp(math.floor(math.ldexp(h, -e)), e),  # h rounded down to 8 bits, ...
                math.ldexp(1.0, math.ceil(math.log2((b - a) / (MAX_NODES - 3)))))  # ... in budget
        grid, exp = range(math.floor(a / h), math.ceil(b / h) + 1), math.exp  # nodes i h
        if len(pairs) == 1:
            ((c, r),) = pairs
            terms = [c * exp(r * (u := i * h) - shift - mu_value * exp(u)) * u**n for i in grid]
        else:  # term by term, in this order, which the sum of |terms| below reads
            us = [i * h for i in grid]
            decays, powers = [mu_value * exp(u) for u in us], [u**n for u in us]
            terms = [c * exp(r * u - shift - d) * p for c, r in pairs for u, d, p in zip(us, decays, powers)]
        bound = min(2 * mass * math.exp(-x) / -math.expm1(-x)  # 2M / (e^x - 1), x = 2 pi pad / h
                    for pad, mass in masses for x in [2 * math.pi * pad / h])
        magnitude = 0.0
        for t in terms:  # left to right, as in _log_beyond
            magnitude += abs(t)
        return h * math.fsum(terms), bound + tails + rounding * h * magnitude, len(grid)

    value, err, nodes = attempt(guess)
    if rel_tol * (abs(value) - err) < err < abs(value):
        value, err, more = attempt(abs(value) - err)
        nodes += more
    converged = err <= rel_tol * (abs(value) - err)
    return QuadratureResult(math.ldexp(value + value * correction, k), math.ldexp(err, k), nodes, converged)


def verdict(closed_value: float, quad: QuadratureResult, rel_tol: float) -> tuple[float, bool]:
    """Relative error of a closed form's value against quadrature, and whether
    it passes: the quadrature converged and the error is at most 10 * rel_tol."""
    rel_err = abs(closed_value - quad.value) / max(abs(closed_value), 1e-300)
    return rel_err, quad.converged and rel_err <= 10.0 * rel_tol
