"""Exact values of Gamma and its derivatives on the half-integer lattice.

Everything here returns elements of the exact constant ring.  Two base
points carry the whole lattice.  At b = 1 and b = 1/2 the classical tables

    Gamma(1) = 1,                  Gamma(1/2) = sqrt(pi)
    psi(1)   = -gamma,             psi(1/2)   = -gamma - 2 log2
    psi^(m)(1)   = (-1)^(m+1) m! zeta(m+1)                    for m >= 1
    psi^(m)(1/2) = (-1)^(m+1) m! (2^(m+1) - 1) zeta(m+1)      for m >= 1

feed the Leibniz recurrence of Gamma' = Gamma*psi, whose coefficients are
then all integers.  Every other lattice point is x = b + m, and
Gamma(x+1) = x Gamma(x) gives Gamma(b+m+t) = P(t) Gamma(b+t) with
P(t) = (b+t)(b+1+t)...(b+m-1+t).  At b = 1, P has integer coefficients; at
b = 1/2, P(t) = 2^(-m) Q(t) with Q(t) = (1+2t)(3+2t)...(2m-1+2t), whose
coefficients are integers.  The Leibniz rule turns P into an integer
combination of the derivatives at b over one power of 2, so no rational
number is formed.  The recurrence and the shift are one call each of the
ring's accumulation kernel (:func:`explogint.ring.sum_of_products`); the
shift multiplies each base block by ONE and divides the sum by w^m.  The
base tables are checked numerically in the test suite rather than assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from .ring import (
    GAMMA,
    LOG2_CONST,
    ONE,
    SQRT_PI_CONST,
    SymbolicConstant,
    sum_of_products,
    zeta_const,
)


class _ArgPointFields(NamedTuple):
    twice: int


class ArgPoint(_ArgPointFields):
    """A point of the positive half-integer lattice, stored as 2*value."""

    __slots__ = ()

    def __new__(cls, twice: int) -> "ArgPoint":
        if not isinstance(twice, int) or twice < 1:
            raise ValueError(f"argument must be a positive half-integer, got {twice}/2")
        return super().__new__(cls, twice)

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


@lru_cache(maxsize=None)
def psi_deriv_at(m: int, x: ArgPoint) -> SymbolicConstant:
    """Exact psi^(m)(x) at the base points x = 1 and x = 1/2."""
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    if x.twice not in (1, 2):
        raise ValueError(f"psi is tabulated at the base points 1 and 1/2 only, got {x}")
    if m == 0:
        return -GAMMA if x.is_integer else -GAMMA - 2 * LOG2_CONST
    # psi^(m)(1) = (-1)^(m+1) m! zeta(m+1); at 1/2 zeta(m+1, 1/2) = (2^(m+1) - 1) zeta(m+1)
    scale = (-1) ** (m + 1) * math.factorial(m)
    if not x.is_integer:
        scale *= 2 ** (m + 1) - 1
    return scale * zeta_const(m + 1)


@lru_cache(maxsize=None)
def gamma_deriv_at(k: int, x: ArgPoint) -> SymbolicConstant:
    """Exact Gamma^(k)(x), from the base point b = 1 or 1/2 below x."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    base = ArgPoint(2 - x.twice % 2)
    m = (x.twice - base.twice) // 2
    if m == 0:
        if k == 0:
            return ONE if x.is_integer else SQRT_PI_CONST
        # G_{j+1} = sum_i C(j,i) psi^(j-i)(b) G_i, all coefficients integers
        j = k - 1
        return sum_of_products(
            (math.comb(j, i), psi_deriv_at(j - i, x), gamma_deriv_at(i, x)) for i in range(j + 1)
        )
    # Gamma(b+m+t) = P(t) Gamma(b+t) with P(t) = prod_{i<m} (b+i+t) = Q(t) / w^m, where
    # w = 1/b and Q(t) = prod_{i<m} (1 + w*i + w*t) = sum_j q_j t^j has integer
    # coefficients.  So Gamma^(k)(b+m) = w^-m sum_{j <= min(k,m)} k!/(k-j)! q_j
    # Gamma^(k-j)(b): an integer sum of the base blocks over w^m, at log_mu power 0.
    top = min(k, m)
    w = 3 - base.twice  # 1/b: 1 at b = 1, 2 at b = 1/2
    q = [1] + [0] * top
    for i in range(m):
        r = 1 + w * i
        for j in range(top, 0, -1):
            q[j] = q[j] * r + q[j - 1] * w
        q[0] *= r
    return sum_of_products(
        ((math.perm(k, j) * q[j], ONE, gamma_deriv_at(k - j, base)) for j in range(top + 1)), w**m
    )
