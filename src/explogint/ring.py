"""Exact constant ring for closed-form integral values.

Every closed form produced by this package has its constant part in the
polynomial ring Q[gamma, log_mu, log2, sqrt_pi, zeta(2), zeta(3), ...].
The ring is purely formal: the generators are treated as algebraically
independent, and pi^2 is always carried as 6*zeta(2) (a pi^2-flavoured
rendering exists for display only).

This module holds the algebra, the weight grading, the display form
(``render``) and JSON.  Reading the display form back is
:func:`explogint.parser.parse_constant`, which shares the integrand
language's tokenizer and diagnostics.

A generator is its position in an exponent vector, which is also its
order; its name, weight and zeta index follow from the position
(:mod:`explogint.generators`, where the generators and the binding
precision ``BITS`` are defined).  An element is a dict from
exponent vectors (trailing zeros trimmed) to nonzero int numerators over
one positive int denominator, with gcd(denominator, every numerator) = 1.
Numerators are scaled to the lcm of the inputs' denominators and one gcd
is divided out at the end; a monomial's own rational coefficient is
formed only to read (``terms``) or print it.  Multiplying monomials
adds vectors, and equality is dict equality; ``scaled_equal`` tells
whether two scaled constants are equal by one dict comparison.
Constants and closed forms print by one walk, ``LeibnizSum``, over one
denominator and items a log_mu^j K with distinct j and log_mu-free K: a
constant's items are its ``log_mu_slices``, a closed form's those of each
mu exponent.  Its runs, each the next monomials of one (gamma, log_mu)
power pair in one K, are read in term order; a print keeps per K a
position, an iterator, in its numerators and one in the tails of its print
plan: per style, built on that style's first use, the text (plain), the
text and pi^2 scale (paper) or the JSON powers of each monomial's entries
from position 2 on (log2, sqrt_pi, zeta(k)).  ``render`` and ``to_json``
read a run by one loop from those positions.  A K's plan is built on its first print and kept with the K
(``_plan_of``), so a warm print of a closed form, whose Gamma^(k)(s) blocks
live as long as ``gamma_deriv_at``'s cache, formats only coefficients; a
constant's slices are built per print, and so are their plans.  The text
of each distinct tail and pair is built once per process: a deep closed
form has thousands of monomials but only a few hundred distinct tails.
Each coefficient is reduced by one gcd against the denominator and written
in one string with its sign, tail and pair.  Past
``sys.get_int_max_str_digits()`` digits, where ``str`` raises, it is
written through ``decimal``, which has no such limit.

Every constant is built by one accumulation loop,
:func:`sum_of_products`, which sums ``c * a * b`` over triples into one dict
over one denominator, reduced and in graded-lexicographic term order,
biggest first, unless it is in term order by construction (below).  A
product by one monomial keeps that order, so a sum of such products
reaches the sort as presorted runs, which it merges.  A sum of log_mu^j K
over distinct j with log_mu-free K, such as a closed form's Leibniz sum,
has no two monomials that collide, so ``LeibnizSum`` prints it with
neither the loop nor the sort: it reads the K's in term order by sorting
only their runs of one degree and gamma power.  Sums and scalar multiples
pass ``ONE`` as the smaller factor, so each key is kept as it stands; the
constructor, ``from_json`` and ``parse_constant`` pass each
``(vector, coeff)`` pair as a one-monomial factor (``_place``).  A slice
of ``log_mu_slices`` is the monomials with one log_mu power, that entry
set to 0; they share the entry, so the slice keeps their order.  A walk's
sum of m_j log_mu^j K_j is a polynomial in delta = gamma + log_mu exactly
when m_j K_j[gamma^i T] = C(i+j, j) m_0 K_0[gamma^(i+j) T] for each
monomial gamma^i T of each K_j with j > 0, and it has sum (m+1) monomials
over K_0's gamma^m T; its delta form is m_0 K_0 with gamma read as delta.

A constant is bound (``binder``) from a ``Constants`` table, the one input
binding reads, of ints at 2^-BITS, and ``evaluate`` rounds its value to a
double once; a closed form binds its K through ``fixed_values``.

All values are immutable and all operations are pure: nothing of a
constant's value is written after it is built, and every reader iterates
``_d`` as it stands.  Its two cache slots hold only what follows from it:
``_plan``, its print plan, written on its first print, and ``_bound``, its
floored value and the table it was bound under, written when it is bound
under another table than the last.  ``from_rational``, ``from_generator``,
negation and the slices keep term order by construction, so equal
constants have identical item order, which the hash reads.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice
from math import comb, gcd, lcm
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .generators import BITS, EULER_GAMMA, LOG2, LOG_MU, SQRT_PI, Generator, _NAMES, _generator, _name, zeta_gen

if TYPE_CHECKING:
    from .oracle import Constants

Scalar = Union[int, Fraction]


class MissingBindingError(KeyError):
    """Raised when a numeric evaluation lacks a value for some generator."""

    def __init__(self, generator: "Generator"):
        super().__init__(generator.name)
        self.generator = generator

    def __str__(self) -> str:
        return f"no numeric binding supplied for generator '{self.generator.name}'"


# The largest zeta index read from outside, and exponent in constant text:
# zeta(k) is entry k + 2 of a dense vector, and delta^d expands to d + 1 terms.
MAX_ZETA_INDEX = 1000


def generator_from_name(name: str) -> Generator:
    if name in _NAMES:
        return Generator(_NAMES.index(name))
    m = re.fullmatch(r"zeta\((\d+)\)", name)
    if m and int(m.group(1)) <= MAX_ZETA_INDEX:
        return zeta_gen(int(m.group(1)))
    raise ValueError(f"unknown generator name {name!r}")


# Public exponent maps are tuples of (generator, exponent), sorted by
# generator, with all exponents strictly positive.
Powers = tuple[tuple[Generator, int], ...]

# Internal exponent vectors: entry i is the exponent of Generator(i), trailing
# zeros trimmed, so each monomial has one vector and the constant monomial is ().
Exponents = tuple[int, ...]


class Monomial(NamedTuple):
    coeff: Fraction
    powers: Powers


def _vector(powers: Powers) -> Exponents:
    v: list[int] = []
    for g, e in powers:
        i = g.index
        if i >= len(v):
            v.extend([0] * (i + 1 - len(v)))
        v[i] += e
    return _trim(tuple(v))


def _trim(e: Exponents) -> Exponents:
    n = len(e)
    while n and not e[n - 1]:
        n -= 1
    return e[:n]


def _grlex_key(item: tuple[Exponents, Scalar]) -> tuple[int, Exponents]:
    # Sorted in reverse: higher total degree first, then the larger exponent
    # at the first generator where two vectors differ.  On trimmed vectors of
    # equal degree neither is a proper prefix of the other, so plain tuple
    # comparison breaks the tie exactly like the generator-by-generator walk.
    return (sum(item[0]), item[0])


def _wrap(d: dict, den: int = 1) -> "SymbolicConstant":
    # Internal constructor: ``d`` over ``den`` is already canonical, so __init__ is skipped.
    obj = object.__new__(SymbolicConstant)
    object.__setattr__(obj, "_d", d)
    object.__setattr__(obj, "_den", den)
    return obj


class SymbolicConstant:
    """An element of the generator ring in canonical combined form.

    Canonical form: like monomials combined, zero coefficients dropped, one
    denominator in lowest terms.  The public view (``terms``) lists
    monomials graded-lexicographically, biggest first.  The empty term list
    is exactly zero.  Instances are immutable and hashable.
    """

    __slots__ = ("_d", "_den", "_plan", "_bound")  # the last two are caches, unset until first use

    def __init__(self, terms: Mapping[Powers, Fraction] | None = None):
        placed = _place((_vector(powers), coeff) for powers, coeff in (terms or {}).items())
        object.__setattr__(self, "_d", placed._d)
        object.__setattr__(self, "_den", placed._den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SymbolicConstant is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar) -> "SymbolicConstant":
        v = Fraction(value)
        return _wrap({(): v.numerator} if v else {}, v.denominator)

    @classmethod
    def from_generator(cls, g: Generator, exponent: int = 1) -> "SymbolicConstant":
        if exponent < 0:
            raise ValueError("generator exponents must be nonnegative")
        return _wrap({(0,) * g.index + (exponent,): 1} if exponent else {(): 1})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[Monomial, ...]:
        return tuple(
            Monomial(Fraction(c, self._den), tuple((_generator(i), k) for i, k in enumerate(e) if k))
            for e, c in self._d.items()
        )

    def __bool__(self) -> bool:
        return bool(self._d)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "SymbolicConstant":
        if isinstance(value, SymbolicConstant):
            return value
        if isinstance(value, (int, Fraction)):
            return SymbolicConstant.from_rational(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "SymbolicConstant":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((1, ONE, self), (1, ONE, other)))

    __radd__ = __add__

    def __neg__(self) -> "SymbolicConstant":
        return _wrap({e: -c for e, c in self._d.items()}, self._den)

    def __sub__(self, other) -> "SymbolicConstant":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "SymbolicConstant":
        return (-self) + other

    def __mul__(self, other) -> "SymbolicConstant":
        if isinstance(other, (int, Fraction)):
            return sum_of_products([(other, ONE, self)])
        if not isinstance(other, SymbolicConstant):
            return NotImplemented
        return sum_of_products([(1, self, other)])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SymbolicConstant":
        # Scalar division only; the ring has no general inverses.
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a symbolic constant by zero")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "SymbolicConstant":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE  # 0**0 == 1 (empty product)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._den == other.denominator and self._d == ({(): other.numerator} if other else {})
        if not isinstance(other, SymbolicConstant):
            return NotImplemented
        return self._den == other._den and self._d == other._d

    def __hash__(self) -> int:
        if self._d.keys() <= {()}:  # a rational hashes as the Fraction it equals
            return hash(Fraction(self._d.get((), 0), self._den))
        return hash((tuple(self._d.items()), self._den))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, table: Constants) -> float:
        """The value, bound by ``binder(table)`` and rounded once to the nearest double."""
        return to_float(*binder(table)(self))

    # -- rendering -----------------------------------------------------------

    def render(self, paper_style: bool = False) -> str:
        """Display form, e.g. ``-gamma^3 - 3*zeta(2)*gamma - 2*zeta(3)``.

        With ``paper_style`` the classical table presentation is used where
        possible: zeta(2) powers fold into pi^2 multiples, and gamma + log_mu
        collapses to delta whenever the whole expression is a polynomial in
        delta alone (see the module docstring).
        """
        return _walk(self).render(paper_style)

    __str__ = render

    def __repr__(self) -> str:
        return f"SymbolicConstant({self.render()!r})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        """``{"terms": [{"coeff": "a/b", "powers": {name: exponent}}]}``, terms
        in term order, powers in descending generator order."""
        return _walk(self).to_json()

    @classmethod
    def from_json(cls, data: dict) -> "SymbolicConstant":
        pairs = []
        for item in _json_terms(data):
            coeff = _json_rational(item, "coeff")
            pairs.append((_json_powers(item), coeff))
        return _place(pairs)


# The printers, ``LeibnizSum.render`` and ``to_json``, walk its runs (D, g, j, i, count): each
# reads the next ``count`` numerators c and tails of part i (``LeibnizSum._columns``), the
# monomials m c / den gamma^g log_mu^j tail, each tail from its K's ``_Plan``.  The text and
# powers of each distinct tail and head are built once per process, and plans hold references
# to them: a deep closed form has thousands of monomials but only a few hundred distinct tails.


@lru_cache(maxsize=None)
def _tail_text(tail: Exponents, paper_style: bool) -> tuple[str, int]:
    """The factors of a tail in descending generator order, each after a "*", and the 6^e
    that a pi^(2e) of paper style puts under the coefficient."""
    text = ""
    scale = 1
    for i in range(len(tail) + 1, 1, -1):
        k = tail[i - 2]
        if not k:
            continue
        if paper_style and i == zeta_gen(2).index:
            scale = 6**k
            text += "*pi^2" if k == 1 else f"*pi^{2 * k}"
        else:
            text += f"*{_name(i)}" if k == 1 else f"*{_name(i)}^{k}"
    return text, scale


@lru_cache(maxsize=None)
def _head_text(g: int, j: int, gamma_name: str) -> str:
    return "".join(f"*{name}" if k == 1 else f"*{name}^{k}" for name, k in (("log_mu", j), (gamma_name, g)) if k)


@lru_cache(maxsize=None)
def _tail_powers(tail: Exponents) -> tuple[tuple[str, int], ...]:
    """The JSON (name, exponent) pairs of a tail, in descending generator order."""
    return tuple((_name(i + 2), tail[i]) for i in range(len(tail) - 1, -1, -1) if tail[i])


_HEAD = itemgetter(slice(1))  # a vector's gamma entry, as a tuple of at most one


class _Plan:
    """The print plan of one block (a K's dict, in term order): its ``runs`` (D, g, count),
    the next ``count`` monomials of total degree D and gamma power g, and per printer each
    monomial's tail, built on that printer's first use (``tails``)."""

    __slots__ = ("runs", "_tails")

    def __init__(self, block: dict):
        self.runs = [(deg, head[0] if head else 0, len(list(run)))
                     for (deg, head), run in groupby(zip(map(sum, block), map(_HEAD, block)))]
        self._tails: dict = {}

    def tails(self, block: dict, style: Union[bool, str]) -> list:
        """Each monomial's tail in term order: for style "json" its ``_tail_powers``, for paper
        style (``style`` True) its ``_tail_text`` pair, and in plain style that pair's text."""
        tails = self._tails.get(style)
        if tails is None:
            tails = self._tails[style] = [_tail_powers(e[2:]) if style == "json" else
                                          _tail_text(e[2:], True) if style else _tail_text(e[2:], False)[0]
                                          for e in block]
        return tails


def _plan_of(K: SymbolicConstant) -> _Plan:
    """K's print plan, built on its first print and kept with K."""
    if getattr(K, "_plan", None) is None:
        object.__setattr__(K, "_plan", _Plan(K._d))
    return K._plan


def _json_terms(data) -> list:
    """The ``'terms'`` array of a JSON document, or a ValueError."""
    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, list):
        raise ValueError("expected an object with a 'terms' array")
    return terms


def _json_field(item, field: str):
    """``item[field]`` of one JSON term, or a ValueError naming the missing field."""
    try:
        return item[field]
    except (KeyError, TypeError):
        raise ValueError(f"each term needs a {field!r} field") from None


def _json_powers(item) -> Exponents:
    """The exponent vector written under ``'powers'`` of one JSON term: an
    object from generator names to positive int exponents <= MAX_ZETA_INDEX."""
    powers = _json_field(item, "powers")
    if not isinstance(powers, dict):
        raise ValueError(f"'powers' must be an object of generator names to exponents, got {powers!r}")
    pairs = []
    for name, e in powers.items():
        if type(e) is not int or not 0 < e <= MAX_ZETA_INDEX:
            raise ValueError(f"'powers' exponents must be positive integers <= {MAX_ZETA_INDEX}, got {name!r}: {e!r}")
        try:
            pairs.append((generator_from_name(name), e))
        except (TypeError, ValueError):
            raise ValueError(f"'powers' names an unknown generator {name!r}") from None
    return _vector(pairs)


def _json_rational(item, field: str) -> Scalar:
    """The exact rational written ``"a/b"`` or ``"a"`` under ``field`` of one JSON term."""
    text = _json_field(item, field)
    try:
        num, _, den = text.partition("/")
        return int(num) if den in ("", "1") else Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError):
        digits = max(map(len, re.findall(r"\d+", text)), default=0) if isinstance(text, str) else 0
        if (limit := sys.get_int_max_str_digits()) and digits > limit:  # int() reads no more; to_json writes more
            raise ValueError(f"{field!r} must be a rational of at most {limit} digits a side, got {digits}") from None
        raise ValueError(f"{field!r} must be a rational 'a/b' with b nonzero, got {text!r}") from None


def sum_of_products(
    triples: Iterable[tuple[Scalar, SymbolicConstant, SymbolicConstant]], den: int = 1
) -> SymbolicConstant:
    """Exact sum of ``c * a * b`` over the triples, divided by ``den``, in one
    dict over the lcm of the triples' denominators, reduced and in term order.

    Each key of the factor with more monomials (on a tie, ``b``) is copied,
    widened to a monomial of the other factor and raised by that monomial's
    nonzero entries; the monomial 1 (vector ``()``) leaves the key as it is.  Exponents are
    nonnegative and a nonempty trimmed vector ends in a nonzero entry, so
    the sum does too: every product key is already trimmed.
    """
    items = []
    lcd = 1
    for c, a, b in triples:
        if c:
            d = c.denominator * a._den * b._den
            items.append((c.numerator, d, a._d, b._d))
            lcd = lcm(lcd, d)
    acc: dict[Exponents, int] = {}
    get = acc.get
    for c, d, a, b in items:
        if len(a) > len(b):
            a, b = b, a
        c *= lcd // d
        for ea, ca in a.items():
            ca *= c
            if ea:
                width = len(ea)
                raise_by = [(i, k) for i, k in enumerate(ea) if k]
            for e, cb in b.items():
                if ea:
                    v = list(e)
                    if len(v) < width:
                        v += [0] * (width - len(v))
                    for i, k in raise_by:
                        v[i] += k
                    e = tuple(v)
                p = ca * cb
                prev = get(e)
                acc[e] = p if prev is None else prev + p
    den *= lcd
    items = sorted(filter(itemgetter(1), acc.items()), key=_grlex_key, reverse=True)
    g = gcd(den, *acc.values()) if den != 1 else 1
    return _wrap(dict(items) if g == 1 else {e: c // g for e, c in items}, den // g)


def _place(pairs: Iterable[tuple[Exponents, Scalar]]) -> SymbolicConstant:
    """Sum of ``coeff * monomial(vector)`` over ``(vector, coeff)`` pairs.
    Vectors are trimmed first, so each monomial has one key."""
    return sum_of_products((c, ONE, _wrap({_trim(e) if e and not e[-1] else e: 1})) for e, c in pairs)


def to_float(num: int, den: int) -> float:
    """num / den rounded once to the nearest double; ValueError when it lies outside the double range."""
    try:
        return num / den
    except OverflowError:
        raise ValueError("closed-form value lies outside the float range") from None


def table_ints(table: Constants) -> Mapping[Generator, int]:
    """``table.fixed``, the ints binding reads; TypeError when ``table`` is no ``Constants``."""
    try:
        return table.fixed
    except AttributeError:
        raise TypeError(f"binding reads a Constants table, not {type(table).__name__}") from None


def binder(table: Constants) -> Callable[[SymbolicConstant], tuple[int, int]]:
    """A function from a constant to the numerator and denominator of its value, exact but
    for one table of powers per generator and one product per distinct (gamma, log_mu) part
    and tail ``vec[2:]``, each an int at 2^-BITS formed once across the function's calls.

    Values: the table's ``fixed`` ints by subscript (``compute_constants()``'s builds a zeta on
    first read); MissingBindingError when one is absent, TypeError when ``table`` is no ``Constants``."""
    fixed = table_ints(table)

    @lru_cache(maxsize=None)
    def power(i: int, k: int) -> int:  # generator i to the k, each power floored from the one below
        try:
            value = x = fixed[_generator(i)]
        except KeyError:
            raise MissingBindingError(_generator(i)) from None
        for _ in range(k - 1):
            value = value * x >> BITS
        return value

    @lru_cache(maxsize=None)
    def part(vec: Exponents, start: int) -> int:
        value = 1 << BITS
        for i, k in enumerate(vec, start):
            if k:
                value = value * power(i, k) >> BITS
        return value

    return lambda const: (sum(c * part(e[:2], 0) * part(e[2:], 2) for e, c in const._d.items()),
                          const._den << 2 * BITS)


def fixed_values(items: Iterable[tuple], table: Constants,
                 bind: Optional[Callable] = None) -> tuple[list[int], Optional[Callable]]:
    """The value at 2^-BITS, rounded down, of each K of items (a, j, K), and the binder: ``bind``, or
    ``binder(table)`` made on first need, which the caller passes on to share.  Each value is kept
    with K beside the table, and read back under that table only."""
    values = []
    for _, _, K in items:
        kept = getattr(K, "_bound", None)
        if kept is None or kept[0] is not table:
            bind = bind or binder(table)
            num, den = bind(K)
            kept = (table, (num << BITS) // den)
            object.__setattr__(K, "_bound", kept)
        values.append(kept[1])
    return values, bind


def log_mu_slices(const: SymbolicConstant) -> tuple[int, list[tuple[int, SymbolicConstant]]]:
    """const's denominator d and the (j, N_j), j ascending, of const = sum_j log_mu^j N_j / d, each N_j
    nonzero, log_mu-free and of int coefficients: the monomials with entry 1 equal to j, that entry 0,
    in the order of const (module docstring)."""
    slices: dict[int, dict[Exponents, int]] = {}
    for e, c in const._d.items():
        j = e[1] if len(e) > 1 else 0
        slices.setdefault(j, {})[_trim(e[:1] + (0,) + e[2:]) if j else e] = c
    return const._den, [(j, _wrap(slices[j])) for j in sorted(slices)]


def scaled_equal(a: int, d: int, K: SymbolicConstant, b: int, e: int, L: SymbolicConstant) -> bool:
    """Whether a/d K == b/e L, for nonzero ints a, b and positive ints d, e: K's numerators times
    a e and L's denominator against L's times b d and K's denominator, as one dict comparison."""
    x, y = a * e * L._den, b * d * K._den
    return len(K._d) == len(L._d) and {m: x * c for m, c in K._d.items()} == {m: y * c for m, c in L._d.items()}


class LeibnizSum:
    """The sum of a/d log_mu^j K over items (a, j, K), the j distinct and each K nonzero and
    log_mu-free, as the printers read it: in term order, without building its dict.  It holds
    a denominator ``den``, ``parts`` (j, m, the dict of a K, its ``_Plan``) and ``runs`` (D, g,
    j, i, count): the next ``count`` items (e, c) of part i are the monomials m c / den gamma^g
    log_mu^j e[2:] of total degree D.

    No two items share j, so no two monomials collide.  A K is in term order, so its
    monomials of one degree and gamma power are one contiguous run, and its runs keep their
    order in the sum; the sum is ordered by D, then g, then j, then within runs (see
    ``_grlex_key``), so only the runs are sorted, by (D, g, j), which are distinct.
    """

    __slots__ = ("den", "parts", "runs")

    def __init__(self, d: int, items: Iterable[tuple[int, int, SymbolicConstant]]):
        items = list(items)
        self.den = d * lcm(*(K._den for _, _, K in items))
        self.parts = [(j, a * (self.den // (d * K._den)), K._d, _plan_of(K)) for a, j, K in items]
        self.runs = sorted(((deg + j, g, j, i, count) for i, (j, _, _, plan) in enumerate(self.parts)
                            for deg, g, count in plan.runs), reverse=True)

    def _columns(self, style: Union[bool, str], delta: bool = False) -> list:
        """Per part i, (m, numerators, tails), the last two iterators over its K in term order:
        run (D, g, j, i, count) is the next ``count`` monomials m c / den gamma^g log_mu^j tail of
        each, each tail of ``style`` (see ``_Plan.tails``); with ``delta``, None where j > 0."""
        return [None if delta and j else (m, iter(block.values()), iter(plan.tails(block, style)))
                for j, m, block, plan in self.parts]

    def _in_delta(self) -> bool:
        """Whether the sum is a polynomial in delta (see the module docstring)."""
        m0, base = next(((m, block) for j, m, block, _ in self.parts if not j), (0, {}))
        if sum(len(block) for _, _, block, _ in self.parts) != sum(e[0] + 1 if e else 1 for e in base):
            return False
        for j, m, block, _ in self.parts:
            if j:
                for e, c in block.items():
                    i = e[0] if e else 0
                    if m * c != comb(i + j, j) * m0 * base.get((i + j,) + e[1:], 0):
                        return False
        return True

    def render(self, paper_style: bool = False) -> str:
        """The display form (see ``SymbolicConstant.render``): per monomial, one string of its sign,
        reduced coefficient, tail and head, the last two each a run of "*factor"."""
        delta = paper_style and self._in_delta()
        den, gamma_name = self.den, "delta" if delta else "gamma"
        parts: list[str] = []
        append = parts.append
        columns = self._columns(paper_style, delta)
        for _, g, j, i, count in self.runs:
            column = columns[i]
            if column is None:
                continue
            m, nums, tails = column
            head = _head_text(g, j, gamma_name)
            for tail in islice(tails, count):
                num = next(nums) * m
                d = den
                if paper_style:
                    tail, scale = tail
                    d *= scale
                sign = " + "
                if num < 0:
                    sign, num = " - ", -num
                if d != 1:
                    r = gcd(num, d)
                    num, d = num // r, d // r
                if num == d and (tail or head):  # a coefficient 1, which is not written
                    append(sign + (tail + head)[1:])
                    continue
                try:
                    append(f"{sign}{num}{tail}{head}" if d == 1 else f"{sign}{num}/{d}{tail}{head}")
                except ValueError:  # too many digits for str (module docstring)
                    append(f"{sign}{Decimal(num)}{'' if d == 1 else f'/{Decimal(d)}'}{tail}{head}")
        if not parts:
            return "0"
        first = parts[0]  # the leading term is "body" or "-body"
        parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(parts)

    def to_json(self) -> dict:
        """The JSON form (see ``SymbolicConstant.to_json``), by the same walk as ``render``."""
        den = self.den
        terms = []
        append = terms.append
        columns = self._columns("json")
        for _, g, j, i, count in self.runs:
            m, nums, tails = columns[i]
            head = {"log_mu": j} if j else {}
            if g:
                head["gamma"] = g
            for powers in islice(tails, count):
                num = next(nums) * m
                r = gcd(num, den)
                try:
                    coeff = f"{num // r}/{den // r}"
                except ValueError:  # too many digits for str (module docstring)
                    coeff = "%s/%s" % (Decimal(num // r), Decimal(den // r))
                append({"coeff": coeff, "powers": dict(powers, **head)})
        return {"terms": terms}


def _walk(const: SymbolicConstant) -> LeibnizSum:
    """The walk over a constant's ``log_mu_slices``."""
    den, slices = log_mu_slices(const)
    return LeibnizSum(den, ((1, j, N) for j, N in slices))


# Ring elements for the individual generators, plus scalar shorthands.
ONE = SymbolicConstant.from_rational(1)
GAMMA = SymbolicConstant.from_generator(EULER_GAMMA)
LOG_MU_CONST = SymbolicConstant.from_generator(LOG_MU)
LOG2_CONST = SymbolicConstant.from_generator(LOG2)
SQRT_PI_CONST = SymbolicConstant.from_generator(SQRT_PI)
rational_const = SymbolicConstant.from_rational


def zeta_const(k: int) -> SymbolicConstant:
    return SymbolicConstant.from_generator(zeta_gen(k))


# ---------------------------------------------------------------------------
# Weight grading
# ---------------------------------------------------------------------------

HOMOGENEOUS = "homogeneous"
INHOMOGENEOUS = "inhomogeneous"
UNGRADABLE = "ungradable"


class Grade(NamedTuple):
    """Result of grading a constant by the gamma/zeta weight.

    ``weight`` is set only for the homogeneous case.  Zero is homogeneous of
    every weight and is reported as homogeneous with ``weight=None``.
    """

    kind: str
    weight: Optional[Fraction] = None

    def __str__(self) -> str:
        if self.kind == HOMOGENEOUS:
            w = "any" if self.weight is None else str(self.weight)
            return f"homogeneous(weight={w})"
        return self.kind


def grade(const: SymbolicConstant) -> Grade:
    """Grade by weight(gamma) = 1, weight(zeta(k)) = k.

    The grading is defined only on the subring generated by gamma and the
    zeta values; any occurrence of log_mu, log2 or sqrt_pi makes the
    expression ungradable.  A monomial's weight is the int e[0] plus
    (i - 2) e[i] over positions i >= 4 of its exponent vector e.
    """
    if not const:
        return Grade(HOMOGENEOUS, None)
    weights: set[int] = set()
    for e in const._d:
        if any(e[1:4]):
            return Grade(UNGRADABLE)
        weights.add((e[0] if e else 0) + sum(i * k for i, k in enumerate(e[4:], 2)))
    if len(weights) == 1:
        return Grade(HOMOGENEOUS, Fraction(weights.pop()))
    return Grade(INHOMOGENEOUS)
