"""Exact values of Gamma, psi and their derivatives on the half-integer lattice.

Everything here returns elements of the exact constant ring.  The classical
inputs are:

    psi(1)       = -gamma
    psi^(m)(x)   = (-1)^(m+1) m! zeta(m+1, x)          for m >= 1
    psi(x+1)     = psi(x) + 1/x
    Gamma(n+1)   = n!
    Gamma(n+1/2) = sqrt(pi) (2n-1)!! / 2^n

Hurwitz zeta values reduce to plain zeta values through the two standard
identities zeta(z, q+1) = zeta(z, q) - q^(-z) and zeta(z, 1/2) =
(2^z - 1) zeta(z); both are verified numerically in the test suite rather
than assumed.  Derivatives of Gamma come from iterating Gamma' = Gamma*psi
with the Leibniz rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .ring import (
    GAMMA,
    LOG2_CONST,
    SQRT_PI_CONST,
    SymbolicConstant,
    rational_const,
    sum_of_products,
    zeta_const,
)


@dataclass(frozen=True, order=True)
class ArgPoint:
    """A point of the positive half-integer lattice, stored as 2*value."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int) or self.twice < 1:
            raise ValueError(f"argument must be a positive half-integer, got {self.twice}/2")

    @classmethod
    def of(cls, value: Union[int, Fraction]) -> "ArgPoint":
        v = Fraction(value)
        if v.denominator not in (1, 2):
            raise ValueError(f"argument must lie on the half-integer lattice, got {v}")
        return cls(int(v * 2))

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def shifted(self, by: int) -> "ArgPoint":
        return ArgPoint(self.twice + 2 * by)

    def __str__(self) -> str:
        return str(self.value)


def harmonic(n: int) -> Fraction:
    """H_n = sum_{k=1}^{n} 1/k, exactly; the empty sum is 0."""
    if n < 0:
        raise ValueError("harmonic numbers need n >= 0")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def odd_harmonic(n: int) -> Fraction:
    """sum_{k=1}^{n} 1/(2k-1), exactly."""
    if n < 0:
        raise ValueError("odd harmonic sums need n >= 0")
    return sum((Fraction(1, 2 * k - 1) for k in range(1, n + 1)), Fraction(0))


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1*3*...*(2n-1), with the empty product (-1)!! = 1."""
    if n < 0:
        raise ValueError("double factorial needs n >= 0")
    return math.prod(range(1, 2 * n, 2))


@lru_cache(maxsize=None)
def psi_deriv_at(m: int, x: ArgPoint) -> SymbolicConstant:
    """Exact psi^(m)(x) for x on the positive half-integer lattice."""
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    if m == 0:
        if x.is_integer:
            n = x.twice // 2  # psi(n) = -gamma + H_{n-1}
            return -GAMMA + rational_const(harmonic(n - 1))
        n = (x.twice - 1) // 2  # x = n + 1/2
        return (
            -GAMMA
            - rational_const(2) * LOG2_CONST
            + rational_const(2 * odd_harmonic(n))
        )
    z = m + 1
    if x.is_integer:
        n = x.twice // 2
        # zeta(z, n) = zeta(z) - sum_{j<n} j^(-z)
        partial = sum((Fraction(1, j**z) for j in range(1, n)), Fraction(0))
        hurwitz = zeta_const(z) - rational_const(partial)
    else:
        n = (x.twice - 1) // 2
        # zeta(z, 1/2) = (2^z - 1) zeta(z), then peel n steps of size 1
        partial = sum((Fraction(2**z, (2 * j + 1) ** z) for j in range(n)), Fraction(0))
        hurwitz = rational_const(2**z - 1) * zeta_const(z) - rational_const(partial)
    sign = 1 if (m + 1) % 2 == 0 else -1
    return rational_const(sign * math.factorial(m)) * hurwitz


@lru_cache(maxsize=None)
def gamma_at(x: ArgPoint) -> SymbolicConstant:
    """Exact Gamma(x): (n-1)! at integers, sqrt(pi)(2n-1)!!/2^n at n+1/2."""
    if x.is_integer:
        n = x.twice // 2
        return rational_const(math.factorial(n - 1))
    n = (x.twice - 1) // 2
    return rational_const(Fraction(double_factorial_odd(n), 2**n)) * SQRT_PI_CONST


@lru_cache(maxsize=None)
def gamma_deriv_at(k: int, x: ArgPoint) -> SymbolicConstant:
    """Exact Gamma^(k)(x) via G_{j+1} = sum_i C(j,i) psi^(j-i)(x) G_i."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k == 0:
        return gamma_at(x)
    j = k - 1
    return sum_of_products(
        (math.comb(j, i), psi_deriv_at(j - i, x), gamma_deriv_at(i, x)) for i in range(j + 1)
    )
