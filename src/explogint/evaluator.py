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
may mention the log_mu generator.  The form holds the sum only as one group
per mu exponent of items a log_mu^j K, one per ln mu power j, with
log_mu-free K, here the Gamma^(k)(s) blocks, of which none names a zeta(i)
with i > k (see :class:`ClosedForm`; one merge, :func:`_merged`, builds
the groups of both constructors).  Printing never expands them: item k is
log_mu^(n-k) times the Gamma^(k) block, a kernel output and so in term
order, and :class:`explogint.ring.LeibnizSum` reads a group's items in the
order of their sum by sorting only their runs of one degree and gamma
power; those runs and the text of each monomial's other factors come from
the K's print plan, kept with the K from its first print, and paper style
reads its delta test off the items too.  Binding never expands them either:
each K is bound to an int at 2^-BITS, kept with the K beside the constants
table it was bound under and read back under that table, and a value is the
sum of the items, rounded to a double once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .oracle import Constants, fixed_log
from .ring import (
    BITS,
    LOG_MU,
    ONE,
    LeibnizSum,
    SymbolicConstant,
    _json_field,
    _json_rational,
    _json_terms,
    fixed_values,
    log_mu_slices,
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

    It is held only as groups (e, d, items), one per mu exponent e, ascending, each
    mu^(-e)/d sum a log_mu^j K over its items (a, j, K): a an int, j distinct, K a nonzero
    log_mu-free constant, which keeps its own print plan and bound value.  So no group is
    zero.  Both constructors hand their parts to :func:`_merged`, the one place that groups
    items by exponent: :func:`eval_general` its Leibniz items, ``ClosedForm(pairs)`` each
    pair's ``log_mu_slices``, c's denominator d and int-coefficient K, so rounding a K to
    2^-BITS loses nothing relative to a tiny c, and pairs that cancel, even in part, bind
    exactly, since their slices are summed before they are bound.  Exponents are
    multiples of 1/2.  ``evaluate``,
    ``at_mu_one``, ``render`` and ``to_json`` read the groups, the printers one
    ``LeibnizSum`` per group.  ``terms``, which ``==`` and ``hash`` read, is built on each
    read: each c_e is one ``sum_of_products`` over its items, so the kernel orders every
    constant, equal values have identical terms and ``==`` is exact semantic equality.
    """

    __slots__ = ("_groups",)

    def __init__(self, terms: Iterable[tuple[Fraction, SymbolicConstant]] = ()):
        parts = []
        for exponent, const in terms:
            e = Fraction(exponent)
            if e.denominator > 2:
                raise ValueError(f"'mu_exponent' must be a multiple of 1/2, got {e}")
            d, slices = log_mu_slices(const)
            parts.append((e, d, tuple((1, j, N) for j, N in slices)))
        object.__setattr__(self, "_groups", _merged(parts))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ClosedForm is immutable")

    @classmethod
    def _of_parts(cls, parts: Iterable[tuple[Fraction, int, tuple]]) -> "ClosedForm":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_groups", _merged(parts))
        return obj

    @property
    def terms(self) -> tuple[tuple[Fraction, SymbolicConstant], ...]:
        """The (e, c_e) pairs, each c_e one kernel sum of its items a/d log_mu^j K."""
        return tuple((e, sum_of_products((Fraction(a, d), SymbolicConstant.from_generator(LOG_MU, j), K)
                                         for a, j, K in items)) for e, d, items in self._groups)

    def __bool__(self) -> bool:
        return bool(self._groups)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def at_mu_one(self) -> SymbolicConstant:
        """Specialize mu = 1: log_mu vanishes and every mu power is 1; the items with j = 0."""
        return sum_of_products(
            (Fraction(a, d), ONE, K) for _, d, items in self._groups for a, j, K in items if not j)

    def evaluate(self, mu_value: float, table: Constants) -> float:
        """Bind mu numerically, log_mu -> ln(mu) and mu^(-e) -> mu_value^(-e), and the rest by ``table``.

        Every value is an int at 2^-BITS until the end: each K's is rounded down by
        ``fixed_values``, which keeps it with K beside the table, ln mu is
        ``fixed_log(mu_value)``, and each mu^(-e) is scaled by its own binary exponent
        (``_mu_power``).  The groups are summed exactly over one denominator and rounded
        once to the nearest double; ValueError when that lies outside the double range.
        """
        if not 0 < mu_value < math.inf:
            raise ValueError("mu must be positive and finite")
        log_mu = fixed_log(mu_value)
        parts, powers, bind = [], [1 << BITS], None  # powers: (ln mu)^j at 2^-BITS
        for e, d, items in self._groups:
            values, bind = fixed_values(items, table, bind)
            total = 0
            for (a, j, _), value in zip(items, values):
                while len(powers) <= j:
                    powers.append(powers[-1] * log_mu >> BITS)
                total += a * powers[j] * value
            parts.append((total, d << 2 * BITS, e))
        if not parts:
            return 0.0
        scaled = [(num * m, den, x) for num, den, e in parts for m, x in [_mu_power(mu_value, e)]]
        low, den = min(x for _, _, x in scaled), math.lcm(*(d for _, d, _ in scaled))
        num = sum(n * (den // d) << x - low for n, d, x in scaled)
        return to_float(num << low, den) if low >= 0 else to_float(num, den << -low)

    def render(self, paper_style: bool = False) -> str:
        bodies = ((e, LeibnizSum(d, items).render(paper_style)) for e, d, items in self._groups)
        return "  +  ".join(body if e == 0 else f"mu^({-e}) * ({body})" for e, body in bodies) or "0"

    __str__ = render

    def __repr__(self) -> str:
        return f"ClosedForm({self.render()!r})"

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "mu_exponent": f"{e.numerator}/{e.denominator}",
                    "constant": LeibnizSum(d, items).to_json(),
                }
                for e, d, items in self._groups
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClosedForm":
        return cls((_json_rational(item, "mu_exponent"), SymbolicConstant.from_json(_json_field(item, "constant")))
                   for item in _json_terms(data))


def eval_In(n: int) -> SymbolicConstant:
    """integral_0^inf e^(-x) (ln x)^n dx = Gamma^(n)(1), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return gamma_deriv_at(n, ArgPoint.of(1))


def eval_general(spec: IntegralSpec) -> ClosedForm:
    """Closed form of the integral described by ``spec``; mu stays symbolic.  Each prefactor
    term c x^p mu^m gives one part (see :func:`_merged`): exponent s + p - m, c's
    denominator, and the Leibniz items a = (-1)^(n-k) C(n,k) times c's numerator,
    j = n - k, K = Gamma^(k)(s + p).  Only mu_power != 0 lets two terms share an exponent
    (4.353.2)."""
    n = spec.log_power
    parts = []
    for pf in spec.prefactor:
        point = spec.s.shifted(pf.power)
        items = tuple(((-1) ** (n - k) * math.comb(n, k) * pf.coeff.numerator, n - k, gamma_deriv_at(k, point))
                      for k in range(n + 1))
        parts.append((spec.s.value + pf.power - pf.mu_power, pf.coeff.denominator, items))
    return ClosedForm._of_parts(parts)


def _merged(parts: Iterable[tuple[Fraction, int, tuple]]) -> tuple:
    """The groups (see :class:`ClosedForm`) of parts (e, d, items), ascending in e.  A part
    alone on its exponent is its group.  Parts that share one give one group over the lcm D
    of their denominators: the items of each j are one item (1, j, the ``sum_of_products`` of
    their a D/d K).  Zero sums are dropped, and so are groups left without items."""
    by_exponent: dict[Fraction, list] = {}
    for e, d, items in parts:
        by_exponent.setdefault(e, []).append((d, items))
    groups = []
    for e, shared in sorted(by_exponent.items()):
        (d, items), *rest = shared
        if rest:
            d = math.lcm(*(d for d, _ in shared))
            by_j: dict[int, list] = {}
            for d_i, part in shared:
                for a, j, K in part:
                    by_j.setdefault(j, []).append((a * (d // d_i), ONE, K))
            items = tuple((1, j, K) for j, triples in by_j.items() if (K := sum_of_products(triples)))
        if items:
            groups.append((e, d, items))
    return tuple(groups)


def _mu_power(mu: float, e: Fraction) -> tuple[int, int]:
    """mu^(-e) as m 2^x, with m an int of about BITS + 4 bits that is the floor of
    its exact value: for mu = a/b and e = p/q, q = 1 or 2, the q-th root of (a/b)^(-p)."""
    a, b = mu.as_integer_ratio()
    p, q = -e.numerator, e.denominator
    num, den = (a**p, b**p) if p >= 0 else (b**-p, a**-p)
    x = (num.bit_length() - den.bit_length()) // q - BITS - 4
    r = (num << -q * x) // den if x <= 0 else num // (den << q * x)
    return (r if q == 1 else math.isqrt(r)), x
