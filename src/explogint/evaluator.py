"""Reduction of exponential-logarithmic integrals to exact closed forms.

The integral class is

    integral_0^inf p(x) x^(s-1) e^(-mu x) (ln x)^n dx

with p a polynomial, s a positive half-integer, mu > 0 and n >= 0.
Differentiating integral x^(s-1) e^(-mu x) dx = mu^(-s) Gamma(s) n times
with respect to s and expanding with the Leibniz rule gives

    integral (ln x)^n x^(s-1) e^(-mu x) dx
        = mu^(-s) sum_k C(n,k) (-ln mu)^(n-k) Gamma^(k)(s),

which is what :func:`eval_general` assembles.  mu stays symbolic throughout:
a closed form is a sum of (mu-exponent, constant) pairs where the constant
may mention the log_mu generator.  The form keeps the sum as its blocks:
the constants are expanded only when read, by one call of the ring's
accumulation kernel :func:`explogint.ring.sum_of_products` per mu exponent,
where term k is the one monomial log_mu^(n-k) times the Gamma^(k) block, a
kernel output and so in term order, so the n + 1 runs merge inside the
kernel's sort.  Binding never expands them: each Gamma^(k)(s) block is
bound once per constants map to an int at 2^-BITS, and a value is then
the Leibniz sum of those ints, rounded to a double once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .oracle import fixed_log
from .ring import (
    BITS,
    LOG_MU,
    ONE,
    Generator,
    SymbolicConstant,
    _json_field,
    _json_rational,
    _json_terms,
    at_log_mu_zero,
    binder,
    sum_of_products,
    to_float,
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

    A form from :func:`eval_general` holds its Leibniz blocks instead: for each
    prefactor term, its mu exponent e, coefficient c, log power n and lattice
    point s, standing for c mu^(-e) sum_k C(n,k) (-log_mu)^(n-k) Gamma^(k)(s).
    Its constants (``terms``) are expanded once, the first time ``terms``,
    ``render``, ``to_json``, ``==`` or ``hash`` reads them; ``at_mu_one`` and
    ``evaluate`` read the blocks.
    """

    __slots__ = ("_terms", "_blocks")

    def __init__(self, terms: Iterable[tuple[Fraction, SymbolicConstant]] = ()):
        acc: dict[Fraction, SymbolicConstant] = {}
        for exponent, const in terms:
            e = Fraction(exponent)
            prev = acc.get(e)
            acc[e] = const if prev is None else prev + const
        cleaned = [(e, c) for e, c in acc.items() if c]
        cleaned.sort(key=lambda item: item[0])
        object.__setattr__(self, "_terms", tuple(cleaned))
        object.__setattr__(self, "_blocks", None)

    @classmethod
    def _of_blocks(cls, blocks: Iterable[tuple[Fraction, Fraction, int, ArgPoint]]) -> "ClosedForm":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", None)
        object.__setattr__(obj, "_blocks", tuple(blocks))
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ClosedForm is immutable")

    @property
    def terms(self) -> tuple[tuple[Fraction, SymbolicConstant], ...]:
        if self._terms is None:
            # One kernel call per mu exponent; each block is a kernel output and so in term
            # order, and a product by the one monomial log_mu^(n-k) keeps it: presorted runs.
            triples: dict[Fraction, list] = {}
            for e, coeff, n, point in self._blocks:
                triples.setdefault(e, []).extend(
                    ((-1) ** (n - k) * math.comb(n, k) * coeff,
                     SymbolicConstant.from_generator(LOG_MU, n - k), gamma_deriv_at(k, point))
                    for k in range(n + 1))
            consts = ((e, sum_of_products(parts)) for e, parts in sorted(triples.items()))
            object.__setattr__(self, "_terms", tuple((e, c) for e, c in consts if c))
        return self._terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def max_zeta(self) -> int:
        """Largest k with zeta(k) among the constants, or 0; a block form reads only its
        blocks of top order n, since Gamma^(k)(s) names zeta(k) and no higher one."""
        if self._blocks is None:
            return max((const.max_zeta() for _, const in self._terms), default=0)
        return max(gamma_deriv_at(n, point).max_zeta() for _, _, n, point in self._blocks)

    def at_mu_one(self) -> SymbolicConstant:
        """Specialize mu = 1: log_mu vanishes and every mu power is 1, so a block
        form is the sum of its coefficients times its blocks of top order n."""
        if self._blocks is None:
            return at_log_mu_zero(const for _, const in self._terms)
        return sum_of_products((coeff, ONE, gamma_deriv_at(n, point)) for _, coeff, n, point in self._blocks)

    def evaluate(self, mu_value: float, bindings: Mapping[Generator, float]) -> float:
        """Bind mu numerically: log_mu -> ln(mu), mu^(-e) -> mu_value^(-e).

        Every value is an int at 2^-BITS until the end: the generators are read
        by ``binder(bindings)``, ln mu is ``fixed_log(mu_value)``, and each
        mu^(-e) is an int scaled by its own binary exponent (``_mu_power``).  A
        block form binds each Gamma^(k)(s) block once per constants map, and keeps
        its value in the map's ``blocks`` (a map without them binds afresh on each
        call); each term is then sum_k C(n,k) (-ln mu)^(n-k) V_k.  The terms are
        summed exactly over one denominator and rounded once to the nearest
        double; ValueError when that lies outside the double range.
        """
        if not 0 < mu_value < math.inf:
            raise ValueError("mu must be positive and finite")
        log_mu = fixed_log(mu_value)
        if self._blocks is None:
            bind = binder(bindings, log_mu)
            parts = [(*bind(const), e) for e, const in self._terms]  # value num/den mu^(-e)
        else:
            bind, parts = None, []
            cache = getattr(bindings, "blocks", {})
            powers = [1 << BITS]  # (-ln mu)^j at 2^-BITS
            for e, coeff, n, point in self._blocks:
                while len(powers) <= n:
                    powers.append(-powers[-1] * log_mu >> BITS)
                total = 0
                for k in range(n + 1):
                    value = cache.get((k, point))
                    if value is None:
                        bind = bind or binder(bindings)
                        num, den = bind(gamma_deriv_at(k, point))
                        value = cache[k, point] = (num << BITS) // den
                    total += math.comb(n, k) * powers[n - k] * value
                parts.append((coeff.numerator * total, coeff.denominator << 2 * BITS, e))
        if not parts:
            return 0.0
        scaled = [(num * m, den, x) for num, den, e in parts for m, x in [_mu_power(mu_value, e)]]
        low, den = min(x for _, _, x in scaled), math.lcm(*(d for _, d, _ in scaled))
        num = sum(n * (den // d) << x - low for n, d, x in scaled)
        return to_float(num << low, den) if low >= 0 else to_float(num, den << -low)

    def render(self, paper_style: bool = False) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, const in self.terms:
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
                for e, c in self.terms
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
    """Closed form of the integral described by ``spec``; mu stays symbolic.  It holds
    one Leibniz block per prefactor term c x^p mu^m: exponent s + p - m, coefficient c,
    log power n and lattice point s + p (see :class:`ClosedForm`)."""
    return ClosedForm._of_blocks(
        (spec.s.value + pf.power - pf.mu_power, pf.coeff, spec.log_power, spec.s.shifted(pf.power))
        for pf in spec.prefactor
    )


def _mu_power(mu: float, e: Fraction) -> tuple[int, int]:
    """mu^(-e) as m 2^x, with m an int of about BITS + 4 bits that is the floor of
    its exact value: for mu = a/b and e = p/q, the q-th root of (a/b)^(-p)."""
    a, b = mu.as_integer_ratio()
    p, q = -e.numerator, e.denominator
    num, den = (a**p, b**p) if p >= 0 else (b**-p, a**-p)
    x = (num.bit_length() - den.bit_length()) // q - BITS - 4
    r = (num << -q * x) // den if x <= 0 else num // (den << q * x)
    if q <= 2:  # e on the half-integer lattice
        return (r if q == 1 else math.isqrt(r)), x
    m = 1 << -(-r.bit_length() // q)  # Newton's method for floor(r^(1/q)), from above
    while (step := ((q - 1) * m + r // m ** (q - 1)) // q) < m:
        m = step
    return m, x
