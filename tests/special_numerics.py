"""Float psi^(m), ln Gamma, Gamma and finite-difference Gamma^(k), for tests.

A third route to the values the exact engine produces, sharing no code
with :mod:`explogint` at all (it imports nothing of the package): psi^(m)
is the recurrence shift plus its asymptotic series, ln Gamma is Stirling's
series, and Gamma^(k) comes from finite differences of the numeric Gamma.
The tests compare the engine, the oracle and these numerics pairwise.
"""

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

# Bernoulli numbers B_2 .. B_16 (exact; converted to float where used).
BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


def digamma_m(m: int, x: float) -> float:
    """psi^(m)(x) for x > 0; relative accuracy ~1e-15 for m <= 7.

    The recurrence psi^(m)(y) = psi^(m)(y+1) - (-1)^m m! / y^(m+1) shifts the
    argument to y >= 10 + m, and then the asymptotic series
    psi^(m)(y) ~ (-1)^(m+1) [(m-1)!/y^m + m!/(2 y^(m+1))
                             + sum_j B_2j (2j+m-1)! / ((2j)! y^(2j+m))]
    runs through the B_16 term, with ln y in place of (m-1)!/y^m at m = 0.
    """
    if x <= 0:
        raise ValueError(f"digamma_m needs x > 0, got {x}")
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    sign, factorial = (-1.0) ** (m + 1), math.factorial
    terms, y = [], x
    while y < 10.0 + m:
        terms.append(sign * factorial(m) / y ** (m + 1))
        y += 1.0
    terms += [math.log(y) if m == 0 else sign * factorial(m - 1) / y**m, sign * factorial(m) / (2.0 * y ** (m + 1))]
    terms += [sign * float(b) * factorial(k + m - 1) / (factorial(k) * y ** (k + m)) for k, b in BERNOULLI.items()]
    return math.fsum(terms)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0: argument shift to >= 10, then Stirling.

    ln Gamma(y) = (y - 1/2) ln y - y + ln(2 pi)/2
                  + sum_j B_2j / (2j (2j-1) y^(2j-1)),  through B_12.
    """
    if x <= 0:
        raise ValueError(f"log_gamma needs x > 0, got {x}")
    shift_terms = []
    y = x
    while y < 10.0:
        shift_terms.append(-math.log(y))
        y += 1.0
    series = [(y - 0.5) * math.log(y), -y, 0.5 * math.log(2.0 * math.pi)]
    power = y
    for two_j in range(2, 13, 2):
        series.append(float(BERNOULLI[two_j]) / (two_j * (two_j - 1) * power))
        power *= y * y
    return math.fsum(shift_terms + series)


def gamma_value(x: float) -> float:
    return math.exp(log_gamma(x))


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def fd_weights(order: int, offsets: Sequence[int]) -> list[Fraction]:
    """Exact finite-difference weights for the given derivative order.

    Fornberg's recurrence on the integer stencil ``offsets`` around 0; the
    actual step h is applied by the caller as a final division by h^order.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if len(set(offsets)) != len(offsets):
        raise ValueError("stencil offsets must be distinct")
    if len(offsets) <= order:
        raise ValueError("stencil too small for the requested derivative")
    n = len(offsets)
    c: list[list[Fraction]] = [[Fraction(0)] * (order + 1) for _ in range(n)]
    c[0][0] = Fraction(1)
    c1 = Fraction(1)
    c4 = Fraction(offsets[0])
    for i in range(1, n):
        mn = min(i, order)
        c2 = Fraction(1)
        c5 = c4
        c4 = Fraction(offsets[i])
        for j in range(i):
            c3 = Fraction(offsets[i] - offsets[j])
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[i][s] = c1 * (s * c[i - 1][s - 1] - c5 * c[i - 1][s]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for s in range(mn, 0, -1):
                c[j][s] = (c4 * c[j][s] - s * c[j][s - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [row[order] for row in c]


def nth_derivative_fd(
    f: Callable[[float], float],
    x: float,
    order: int,
    h: float,
    half_width: int = 6,
) -> float:
    """Central finite difference of f^(order)(x) on a (2*half_width+1)-point stencil."""
    offsets = list(range(-half_width, half_width + 1))
    weights = fd_weights(order, offsets)
    terms = [float(w) * f(x + o * h) for w, o in zip(weights, offsets) if w]
    return math.fsum(terms) / h**order


# Step sizes balancing truncation against eps/h^k roundoff growth for a
# 13-point stencil applied to Gamma near x ~ 1..4.
_FD_STEPS = {0: 1e-3, 1: 1e-3, 2: 1e-3, 3: 8e-3, 4: 4e-2, 5: 5e-2}


def gamma_derivative_fd(order: int, x: float, h: Optional[float] = None) -> float:
    """Gamma^(order)(x) by pure finite differencing of the numeric Gamma.

    One Richardson step (h and h/2, leading error order 8 for the 13-point
    central stencil) removes most of the truncation error.
    """
    if order == 0:
        return gamma_value(x)
    step = h if h is not None else _FD_STEPS.get(order, 5e-2)
    coarse = nth_derivative_fd(gamma_value, x, order, step)
    fine = nth_derivative_fd(gamma_value, x, order, step / 2.0)
    return (256.0 * fine - coarse) / 255.0
