"""Reduction of exponential-logarithmic integrals to exact closed forms.

The integral class is

    integral_0^inf p(x) x^(s-1) e^(-mu x) (ln x)^n dx

with p a polynomial, s a positive half-integer, mu > 0 and n >= 0.
Differentiating integral x^(s-1) e^(-mu x) dx = mu^(-s) Gamma(s) n times
with respect to s and expanding with the Leibniz rule gives

    integral (ln x)^n x^(s-1) e^(-mu x) dx
        = mu^(-s) sum_k C(n,k) (-ln mu)^(n-k) Gamma^(k)(s),

which is what :func:`eval_general` assembles.  The whole sum is one call of
the ring's accumulation kernel :func:`explogint.ring.sum_of_products`: term
k is the one monomial log_mu^(n-k) times the Gamma^(k) block, a kernel output
and so in term order, so each term is one presorted run and the n + 1 runs
merge inside the kernel's sort.  mu stays symbolic throughout: a closed
form is a sum of (mu-exponent, constant) pairs where the constant may mention
the log_mu generator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .ring import (
    LOG_MU,
    Generator,
    SymbolicConstant,
    _json_field,
    _json_rational,
    _json_terms,
    at_log_mu_zero,
    sum_of_products,
)
from .special_values import ArgPoint, gamma_deriv_at


class _PrefactorTermFields(NamedTuple):
    power: int
    coeff: Fraction
    mu_power: int


class PrefactorTerm(_PrefactorTermFields):
    """One term coeff * mu^mu_power * x^power of the prefactor polynomial.

    ``mu_power`` supports integrands whose printed form couples mu into the
    polynomial part (table entry 4.353.2); the expression parser always
    produces mu_power = 0.
    """

    __slots__ = ()

    def __new__(cls, power: int, coeff: Fraction, mu_power: int = 0) -> "PrefactorTerm":
        if power < 0:
            raise ValueError("prefactor powers must be nonnegative")
        if not coeff:
            raise ValueError("prefactor terms must have nonzero coefficients")
        return super().__new__(cls, power, coeff, mu_power)


class _IntegralSpecFields(NamedTuple):
    prefactor: tuple[PrefactorTerm, ...]
    s: ArgPoint
    log_power: int
    mu: Optional[Fraction]  # None: symbolic; otherwise an exact value > 0


class IntegralSpec(_IntegralSpecFields):
    """A member of the integral class; mu is symbolic unless pinned."""

    __slots__ = ()

    def __new__(cls, prefactor, s: ArgPoint, log_power: int, mu: Optional[Fraction] = None):
        if not prefactor:
            raise ValueError("prefactor must be nonempty")
        if log_power < 0:
            raise ValueError("log power must be nonnegative")
        if mu is not None and mu <= 0:
            raise ValueError("mu must be positive")
        return super().__new__(cls, prefactor, s, log_power, mu)

    @classmethod
    def simple(
        cls,
        s: Union[int, Fraction, ArgPoint],
        log_power: int,
        mu: Optional[Union[int, Fraction]] = None,
    ) -> "IntegralSpec":
        """Spec with trivial prefactor p(x) = 1."""
        point = s if isinstance(s, ArgPoint) else ArgPoint.of(s)
        pinned = None if mu is None else Fraction(mu)
        return cls((PrefactorTerm(0, Fraction(1)),), point, log_power, pinned)


class ClosedForm:
    """A finite sum  sum_e mu^(-e) * c_e  with exact constants c_e.

    Exponents are distinct and sorted; zero constants are dropped, so equal
    values have identical representations and ``==`` is exact semantic
    equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, SymbolicConstant]] = ()):
        acc: dict[Fraction, SymbolicConstant] = {}
        for exponent, const in terms:
            e = Fraction(exponent)
            prev = acc.get(e)
            acc[e] = const if prev is None else prev + const
        cleaned = [(e, c) for e, c in acc.items() if c]
        cleaned.sort(key=lambda item: item[0])
        object.__setattr__(self, "_terms", tuple(cleaned))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ClosedForm is immutable")

    @property
    def terms(self) -> tuple[tuple[Fraction, SymbolicConstant], ...]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def at_mu_one(self) -> SymbolicConstant:
        """Specialize mu = 1: log_mu vanishes and every mu power is 1."""
        return at_log_mu_zero(const for _, const in self._terms)

    def evaluate(self, mu_value: float, bindings: Mapping[Generator, float]) -> float:
        """Bind mu numerically: log_mu -> ln(mu), mu^(-e) -> mu_value^(-e)."""
        if not 0 < mu_value < math.inf:
            raise ValueError("mu must be positive and finite")
        full = dict(bindings)
        full[LOG_MU] = math.log(mu_value)
        return math.fsum(
            mu_value ** float(-e) * const.evaluate(full) for e, const in self._terms
        )

    def render(self, paper_style: bool = False) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, const in self._terms:
            body = const.render(paper_style=paper_style)
            if e == 0:
                parts.append(body)
            else:
                exp = f"-{e}" if e > 0 else str(-e)
                parts.append(f"mu^({exp}) * ({body})")
        return "  +  ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ClosedForm({self.render()!r})"

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "mu_exponent": f"{e.numerator}/{e.denominator}",
                    "constant": c.to_json(),
                }
                for e, c in self._terms
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClosedForm":
        terms = []
        for item in _json_terms(data):
            e = _json_rational(item, "mu_exponent")
            terms.append((e, SymbolicConstant.from_json(_json_field(item, "constant"))))
        return cls(terms)


def eval_In(n: int) -> SymbolicConstant:
    """integral_0^inf e^(-x) (ln x)^n dx = Gamma^(n)(1), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return gamma_deriv_at(n, ArgPoint.of(1))


def eval_general(spec: IntegralSpec) -> ClosedForm:
    """Closed form of the integral described by ``spec``; mu stays symbolic."""
    n = spec.log_power
    terms: list[tuple[Fraction, SymbolicConstant]] = []
    for pf in spec.prefactor:
        point = spec.s.shifted(pf.power)
        # The coefficient's numerator scales the parts and its denominator the sum.
        num = pf.coeff.numerator
        const = sum_of_products(
            (((-1) ** (n - k) * math.comb(n, k) * num,
              SymbolicConstant.from_generator(LOG_MU, n - k), gamma_deriv_at(k, point))
             for k in range(n + 1)),
            pf.coeff.denominator,
        )
        terms.append((spec.s.value + pf.power - pf.mu_power, const))
    return ClosedForm(terms)
