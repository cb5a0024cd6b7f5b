"""Recursive-descent parser for the two text languages: integrands and constants.

Both share one tokenizer, one cursor and one error type,
:class:`IntegrandSyntaxError`, which carries the position of the offending
token.  Integrand grammar (whitespace between tokens is ignored):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational
              | 'x' [ '^' '(' signed ')' ]
              | 'exp' '(' '-' [ rational ['*'] ] 'x' ')'
              | 'log' '(' 'x' ')' [ '^' integer ]
              | '(' expr ')'
    rational := number [ '/' number ]        number := digits [ '.' digits ]
    signed   := [ '-' ] rational

This is the smallest language covering every integrand of the supported
class p(x) x^(s-1) e^(-mu x) (ln x)^n.  Parsing yields an expression tree;
normalization either maps the tree onto a single
:class:`~explogint.evaluator.IntegralSpec` or rejects it with a diagnostic
naming the offending factor.

The constant language is the display form of
:meth:`~explogint.ring.SymbolicConstant.render`, read back by
:func:`parse_constant`.  Its numbers are integers only:

    constant := [ '-' ] cterm (('+' | '-') cterm)*
    cterm    := cfactor ('*' cfactor)*
    cfactor  := integer [ '/' integer ]
              | name [ '^' integer ]
              | 'zeta' '(' integer ')' [ '^' integer ]
    name     := 'gamma' | 'log_mu' | 'log2' | 'sqrt_pi' | 'delta' | 'pi'

``delta`` is gamma + log_mu, and ``pi`` takes an even exponent only.  No
ring product is formed: a term is one coefficient and one exponent vector,
pi^(2k) is 6^k zeta(2)^k, delta^d expands as sum_j C(d,j) gamma^(d-j)
log_mu^j, and every monomial is placed into a single dict.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional, Union

from .evaluator import IntegralSpec, PrefactorTerm
from .ring import SymbolicConstant, _place, generator_from_name, zeta_gen
from .special_values import ArgPoint


class IntegrandSyntaxError(ValueError):
    """Malformed input; carries the 0-based position and what was expected."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"syntax error at position {position}: expected {expected}, found {found}")


class UnsupportedIntegrandError(ValueError):
    """Well-formed input outside the supported integral class."""

    def __init__(self, message: str, factor: str, position: Optional[int] = None):
        self.factor = factor
        self.position = position
        at = f" at position {position}" if position is not None else ""
        super().__init__(f"unsupported integrand{at}: {message} (offending factor: {factor})")


# --- expression tree -------------------------------------------------------
# Nodes are named tuples, so == compares fields only: NumberLit(2) == LogFactor(2).


class NumberLit(NamedTuple):
    value: Fraction


class VarX:
    """The bare variable x: no fields, so not a (falsy, empty) tuple."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, VarX)

    def __hash__(self) -> int:
        return hash(VarX)

    def __repr__(self) -> str:
        return "VarX()"


class XPower(NamedTuple):
    exponent: Fraction


class ExpFactor(NamedTuple):
    rate: Fraction  # exp(-rate*x)


class LogFactor(NamedTuple):
    power: int  # log(x)^power, power >= 1


class Product(NamedTuple):
    factors: tuple  # two or more factors


class Sum(NamedTuple):
    terms: tuple  # two or more terms
    ops: tuple  # '+'/'-' joining consecutive terms; len == len(terms) - 1


Node = Union[NumberLit, VarX, XPower, ExpFactor, LogFactor, Product, Sum]


def ast_to_text(node: Node) -> str:
    """Canonical text form; ``parse_integrand`` inverts it structurally."""
    if isinstance(node, NumberLit):
        return _fraction_text(node.value)
    if isinstance(node, VarX):
        return "x"
    if isinstance(node, XPower):
        return f"x^({_fraction_text(node.exponent)})"
    if isinstance(node, ExpFactor):
        if node.rate == 1:
            return "exp(-x)"
        return f"exp(-{_fraction_text(node.rate)}*x)"
    if isinstance(node, LogFactor):
        return "log(x)" if node.power == 1 else f"log(x)^{node.power}"
    if isinstance(node, Product):
        return "*".join(
            f"({ast_to_text(f)})" if isinstance(f, Sum) else ast_to_text(f)
            for f in node.factors
        )
    if isinstance(node, Sum):
        pieces = [ast_to_text(node.terms[0])]
        for op, term in zip(node.ops, node.terms[1:]):
            pieces.append(f" {op} {ast_to_text(term)}")
        return "".join(pieces)
    raise TypeError(f"not an expression node: {node!r}")


def _fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# --- tokenizer --------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/])"
    r"|(?P<bad>\S))"
)


class _Token(NamedTuple):
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    # A match is whitespace and one token, and 'bad' takes any other character,
    # so the matches cover the text up to trailing whitespace.
    tokens = [_Token(m.lastgroup, m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN.finditer(text)]
    for tok in tokens:
        if tok.kind == "bad":
            raise IntegrandSyntaxError(tok.position, "a number, name or operator", repr(tok.text))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise IntegrandSyntaxError(tok.position, f"'{op}'", self._describe(tok))
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else f"'{tok.text}'"

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Node:
        terms = [self.parse_term()]
        ops = []
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                ops.append(tok.text)
                terms.append(self.parse_term())
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms), tuple(ops))

    # term := factor ('*' factor)*
    def parse_term(self) -> Node:
        factors = [self.parse_factor()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                factors.append(self.parse_factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            return NumberLit(self.parse_rational())
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            if tok.text == "x":
                return self.parse_x()
            if tok.text == "exp":
                return self.parse_exp()
            if tok.text == "log":
                return self.parse_log()
            raise UnsupportedIntegrandError(
                "only x powers, one decaying exponential and integer log powers are supported",
                tok.text,
                tok.position,
            )
        raise IntegrandSyntaxError(
            tok.position, "a factor (number, x, exp, log or '(')", self._describe(tok)
        )

    def parse_rational(self) -> Fraction:
        tok = self.advance()
        if tok.kind != "number":
            raise IntegrandSyntaxError(tok.position, "a number", self._describe(tok))
        value = Fraction(tok.text)  # decimal literals become exact fractions
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "/":
            self.advance()
            den_tok = self.advance()
            if den_tok.kind != "number":
                raise IntegrandSyntaxError(den_tok.position, "a denominator", self._describe(den_tok))
            den = Fraction(den_tok.text)
            if den == 0:
                raise IntegrandSyntaxError(den_tok.position, "a nonzero denominator", "'0'")
            value = value / den
        return value

    def parse_signed_rational(self) -> Fraction:
        tok = self.peek()
        sign = 1
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
        return sign * self.parse_rational()

    def parse_x(self) -> Node:
        self.advance()  # 'x'
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            self.expect_op("(")
            exponent = self.parse_signed_rational()
            self.expect_op(")")
            return XPower(exponent)
        return VarX()

    def parse_exp(self) -> Node:
        self.advance()  # 'exp'
        self.expect_op("(")
        self.expect_op("-")
        tok = self.peek()
        rate = Fraction(1)
        if tok.kind == "number":
            rate = self.parse_rational()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.advance()
        x_tok = self.advance()
        if x_tok.kind != "name" or x_tok.text != "x":
            raise IntegrandSyntaxError(x_tok.position, "'x'", self._describe(x_tok))
        self.expect_op(")")
        if rate <= 0:
            raise UnsupportedIntegrandError(
                "the exponential decay rate must be positive", f"exp(-{rate}*x)"
            )
        return ExpFactor(rate)

    def parse_log(self) -> Node:
        self.advance()  # 'log'
        self.expect_op("(")
        x_tok = self.advance()
        if x_tok.kind != "name" or x_tok.text != "x":
            raise IntegrandSyntaxError(x_tok.position, "'x'", self._describe(x_tok))
        self.expect_op(")")
        tok = self.peek()
        power = 1
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            p_tok = self.advance()
            if p_tok.kind != "number" or not p_tok.text.isdigit():
                raise IntegrandSyntaxError(p_tok.position, "an integer exponent", self._describe(p_tok))
            power = int(p_tok.text)
            if power < 1:
                raise IntegrandSyntaxError(p_tok.position, "a positive exponent", p_tok.text)
        return LogFactor(power)

    # cterm := cfactor ('*' cfactor)*
    def parse_constant_term(self, coeff: int) -> list:
        """One term, signed by ``coeff``, as (vector, coefficient) pairs; delta^d expands."""
        vector, d = [0, 0], 0
        while True:
            scalar, i, e = self.parse_constant_factor()
            if scalar != 1:  # a name's scalar is the int 1: no Fraction product
                coeff *= scalar
            if i == "delta":
                d += e
            elif e:
                vector.extend([0] * (i + 1 - len(vector)))
                vector[i] += e
            if self.peek().text != "*":  # only an operator token has an operator's text
                break
            self.advance()
        gamma, log_mu, *rest = vector  # entries 0 and 1
        return [((gamma + d - j, log_mu + j, *rest), coeff * comb(d, j)) for j in range(d + 1)]

    def parse_constant_factor(self) -> tuple:
        """A factor as (scalar, generator position or 'delta', exponent)."""
        tok = self.peek()
        if tok.kind == "number":
            return self.parse_rational(), None, 0
        if tok.kind != "name":
            raise IntegrandSyntaxError(tok.position, "a number or a constant", self._describe(tok))
        self.advance()
        if tok.text == "zeta":
            self.expect_op("(")
            k_tok = self.advance()
            if k_tok.kind != "number" or int(k_tok.text) < 2:
                raise IntegrandSyntaxError(k_tok.position, "a zeta index >= 2", self._describe(k_tok))
            self.expect_op(")")
            i = zeta_gen(int(k_tok.text)).index
        elif tok.text in ("delta", "pi"):
            i = tok.text
        else:
            try:
                i = generator_from_name(tok.text).index
            except ValueError:
                raise IntegrandSyntaxError(tok.position, "a constant", self._describe(tok)) from None
        exponent = 1
        if self.peek().text == "^":
            self.advance()
            e_tok = self.advance()
            if e_tok.kind != "number":
                raise IntegrandSyntaxError(e_tok.position, "an integer exponent", self._describe(e_tok))
            exponent = int(e_tok.text)
        if i == "pi":
            if exponent % 2:
                raise IntegrandSyntaxError(
                    tok.position, "an even power of pi (pi^2 = 6*zeta(2)) or sqrt_pi",
                    f"'pi^{exponent}'",
                )
            return 6 ** (exponent // 2), zeta_gen(2).index, exponent // 2  # pi^2 = 6*zeta(2)
        return 1, i, exponent


def parse_integrand(text: str) -> Node:
    """Parse the expression language; raises with a position on failure."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise IntegrandSyntaxError(tok.position, "end of input", parser._describe(tok))
    return node


def parse_constant(text: str) -> SymbolicConstant:
    """Parse the display form produced by :meth:`SymbolicConstant.render`.

    Accepts the plain and the paper-style spellings (``delta``, even powers
    of ``pi``); raises :class:`IntegrandSyntaxError` with a position on
    failure.
    """
    parser = _Parser(text)
    for tok in parser.tokens:
        if tok.kind == "number" and "." in tok.text:
            raise IntegrandSyntaxError(tok.position, "an integer", f"'{tok.text}'")
    sign = 1
    if parser.peek().text == "-":
        parser.advance()
        sign = -1
    pairs = []
    while True:
        pairs += parser.parse_constant_term(sign)
        tok = parser.advance()
        if tok.kind == "end":
            return _place(pairs)
        if tok.kind != "op" or tok.text not in ("+", "-"):
            raise IntegrandSyntaxError(tok.position, "'+', '-' or end of input", parser._describe(tok))
        sign = 1 if tok.text == "+" else -1


# --- normalization ----------------------------------------------------------


class _FlatTerm(NamedTuple):
    coeff: Fraction
    x_power: Fraction
    log_power: int
    rates: tuple  # decay rates of the exponential factors seen


def _expand(node: Node) -> list[_FlatTerm]:
    if isinstance(node, NumberLit):
        return [_FlatTerm(node.value, Fraction(0), 0, ())]
    if isinstance(node, VarX):
        return [_FlatTerm(Fraction(1), Fraction(1), 0, ())]
    if isinstance(node, XPower):
        return [_FlatTerm(Fraction(1), node.exponent, 0, ())]
    if isinstance(node, ExpFactor):
        return [_FlatTerm(Fraction(1), Fraction(0), 0, (node.rate,))]
    if isinstance(node, LogFactor):
        return [_FlatTerm(Fraction(1), Fraction(0), node.power, ())]
    if isinstance(node, Product):
        terms = [_FlatTerm(Fraction(1), Fraction(0), 0, ())]
        for factor in node.factors:
            expanded = _expand(factor)
            terms = [
                _FlatTerm(
                    a.coeff * b.coeff,
                    a.x_power + b.x_power,
                    a.log_power + b.log_power,
                    a.rates + b.rates,
                )
                for a in terms
                for b in expanded
            ]
        return terms
    if isinstance(node, Sum):
        out = list(_expand(node.terms[0]))
        for op, term in zip(node.ops, node.terms[1:]):
            sign = Fraction(1) if op == "+" else Fraction(-1)
            out.extend(
                _FlatTerm(sign * t.coeff, t.x_power, t.log_power, t.rates)
                for t in _expand(term)
            )
        return out
    raise TypeError(f"not an expression node: {node!r}")


def to_integral_spec(node: Node) -> IntegralSpec:
    """Map a parsed expression onto the supported integral class."""
    flats = _expand(node)

    for t in flats:
        if len(t.rates) == 0:
            raise UnsupportedIntegrandError(
                "every additive term needs exactly one exponential factor",
                ast_to_text(node),
            )
        if len(t.rates) > 1:
            raise UnsupportedIntegrandError(
                "a term contains more than one exponential factor",
                " * ".join(f"exp(-{r}*x)" for r in t.rates),
            )
    rates = {t.rates[0] for t in flats}
    if len(rates) > 1:
        raise UnsupportedIntegrandError(
            "all terms must share one decay rate",
            ", ".join(f"exp(-{r}*x)" for r in sorted(rates)),
        )
    mu = rates.pop()

    log_powers = {t.log_power for t in flats}
    if len(log_powers) > 1:
        raise UnsupportedIntegrandError(
            "all terms must carry the same power of log(x)",
            ", ".join(f"log(x)^{p}" for p in sorted(log_powers)),
        )
    log_power = log_powers.pop()

    merged: dict[Fraction, Fraction] = {}
    for t in flats:
        merged[t.x_power] = merged.get(t.x_power, Fraction(0)) + t.coeff
    merged = {p: c for p, c in merged.items() if c}
    if not merged:
        raise UnsupportedIntegrandError("the integrand is identically zero", ast_to_text(node))

    base = min(merged)
    for p in merged:
        step = p - base
        if step.denominator != 1:
            raise UnsupportedIntegrandError(
                "x powers must differ by integers", f"x^({_fraction_text(p)})"
            )
    s_value = base + 1
    if 2 * s_value < 1 or (2 * s_value).denominator != 1:
        raise UnsupportedIntegrandError(
            "the base exponent s must be a positive integer or half-integer",
            f"x^({_fraction_text(base)})",
        )

    prefactor = tuple(
        PrefactorTerm(int(p - base), c) for p, c in sorted(merged.items())
    )
    return IntegralSpec(prefactor, ArgPoint.of(s_value), log_power, mu)
