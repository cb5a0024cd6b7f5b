"""Recursive-descent parser for the two text languages: integrands and constants.

Both share one tokenizer, one cursor and one error type,
:class:`IntegrandSyntaxError`, which carries the position of the offending
token.  Integrand grammar (whitespace between tokens is ignored):

    expr     := [ '-' ] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational
              | 'x' [ '^' '(' signed ')' ]
              | 'exp' '(' '-' [ rational ['*'] ] 'x' ')'
              | 'log' '(' 'x' ')' [ '^' integer ]
              | '(' expr ')'
    rational := number [ '/' number ]        number := digits [ '.' digits ]
    signed   := [ '-' ] rational

This is the smallest language covering every integrand of the supported
class p(x) x^(s-1) e^(-mu x) (ln x)^n.  Parentheses nest at most
``MAX_NESTING`` deep; a deeper '(' is a syntax error at its position, and
so is a log exponent, or a factor taking its term's log power, above
``MAX_LOG_POWER``, or its |x power| above ``MAX_X_POWER``, and a number,
factor or term past the digits ``str()`` prints (sys.get_int_max_str_digits).
Parsing yields an :class:`Integrand` in one pass, with no tree between:
its canonical text and its expansion, multiplied out with like terms
merged as each product forms.  Exponentials multiply by adding their
rates, so ``exp(-x)*exp(-x)`` expands as ``exp(-2*x)`` does.
Normalization either maps the expansion onto a single
:class:`~explogint.evaluator.IntegralSpec` or rejects it with a
diagnostic naming the offending factor.

The expansion carries every whole number, literal or formed, as an
``int``, and a ``Fraction`` only for a number that is not whole: most
literals are small integers, and int arithmetic costs a fraction of
``Fraction``'s.  A sum with a zero or a product with a unit is not formed
at all.  ``to_integral_spec`` converts to ``Fraction`` once, so a spec's
numbers are Fractions.  The digit caps read the limit,
``sys.get_int_max_str_digits()``, once per parse.  An int of at most
``3*limit`` bits has fewer than ``limit`` digits, so it passes with one
comparison; the exact test against ``10**limit`` runs only past that
length, on an int or on a Fraction's larger part.

The constant language is the display form of
:meth:`~explogint.ring.SymbolicConstant.render`, read back by
:func:`parse_constant`.  Its numbers are integers only, and a decimal is
an error at its own token:

    constant := [ '-' ] cterm (('+' | '-') cterm)*
    cterm    := cfactor ('*' cfactor)*
    cfactor  := integer [ '/' integer ]
              | name [ '^' integer ]
              | 'zeta' '(' integer ')' [ '^' integer ]
    name     := 'gamma' | 'log_mu' | 'log2' | 'sqrt_pi' | 'delta' | 'pi'

``delta`` is gamma + log_mu, and ``pi`` takes an even exponent only.  A zeta
index or an exponent above :data:`~explogint.ring.MAX_ZETA_INDEX` is an
error at its token, and so is a delta factor that takes the sum of its
term's delta exponents above it.  No ring product is formed: a term is one
coefficient and one exponent vector, pi^(2k) is 6^k zeta(2)^k, delta^d
expands as sum_j C(d,j) gamma^(d-j) log_mu^j, and every monomial is placed
into a single dict.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial
from math import comb, inf
from typing import NamedTuple, Optional

from .evaluator import IntegralSpec, PrefactorTerm
from .ring import MAX_ZETA_INDEX, SymbolicConstant, _place, generator_from_name, zeta_gen
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


class Integrand(NamedTuple):
    """A parsed integrand: its canonical text, which parses back to the same
    integrand, and its expansion ``{(x power, log power, rate): coeff}``."""

    text: str
    terms: dict


def _exact(value: int | Fraction) -> int | Fraction:
    """``value`` as an int if it is whole; the parser keeps a Fraction only
    for a value that is not an integer."""
    return value.numerator if value.denominator == 1 else value


def _fraction_text(value: int | Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _exp_text(rate: int | Fraction) -> str:
    return "exp(-x)" if rate == 1 else f"exp(-{_fraction_text(rate)}*x)"


def _log_text(power: int) -> str:
    return "no log(x)" if power == 0 else "log(x)" if power == 1 else f"log(x)^{power}"


def _term_text(x: int | Fraction, n: int, coeff: int | Fraction) -> str:
    """A term without an exponential, written as the parser writes its factors."""
    factors = [] if x == 0 else ["x" if x == 1 else f"x^({_fraction_text(x)})"]
    if n:
        factors.append(_log_text(n))
    if abs(coeff) != 1 or not factors:
        factors.insert(0, _fraction_text(abs(coeff)))
    return ("-" if coeff < 0 else "") + "*".join(factors)


def _grouped(text: str) -> str:
    """A canonical text in parentheses if it starts with '-' or is a sum (has a space
    outside parentheses: canonical spaces stand only around '+' and '-')."""
    if " " in text:
        depth = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            if ch == " " and not depth:
                return f"({text})"
    return f"({text})" if text.startswith("-") else text


def _times(a: dict, b: dict) -> dict:
    """The product of two expansions, like terms merged, every whole value an
    int.  A sum with a zero and a product with a unit are not formed: with a
    Fraction, either would make a new Fraction equal to the other operand."""
    product: dict = {}
    for (xa, la, ra), ca in a.items():
        for (xb, lb, rb), cb in b.items():
            x = _exact(xa + xb) if xa and xb else xa or xb
            rate = _exact(ra + rb) if ra and rb else ra or rb
            c = ca if cb == 1 else cb if ca == 1 else _exact(ca * cb)
            key = (x, la + lb, rate)
            product[key] = _exact(product[key] + c) if key in product else c
    return product


# --- tokenizer --------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<exponent>(?<=\d)[eE][-+]?\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()/])|(?P<bad>\S))"
)

MAX_NESTING = 100  # parenthesis depth; deeper input is a syntax error, not a RecursionError
MAX_LOG_POWER = 40  # a term's log power n; the closed form's cost grows steeply in n
MAX_X_POWER = 10**4  # a term's |x power|; the closed form's cost grows with it


class _Token(NamedTuple):
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    position: int


_token = partial(tuple.__new__, _Token)  # a _Token without the Python-level __new__ of a NamedTuple


def _tokenize(text: str) -> list[_Token]:
    # A match is whitespace and one token, and 'bad' takes any other character,
    # so the matches cover the text up to trailing whitespace.  'exponent' takes
    # the e3 of 1e3, which would otherwise read as a name.
    tokens = [_token((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))) for m in _TOKEN.finditer(text)]
    for tok in tokens:
        if tok.kind == "bad":
            raise IntegrandSyntaxError(tok.position, "a number, name or operator", repr(tok.text))
        if tok.kind == "exponent":
            raise IntegrandSyntaxError(tok.position, "a number written out in digits, as 1000 or 1/1000 "
                                       "(exponent notation is not part of the language)", repr(tok.text))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    # A token's kind follows from its text, so a name or an operator is
    # matched by text alone.

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        # str() prints an int of at most `limit` digits (0: no limit), and an int
        # of at most 3*limit bits has fewer, so only a longer one needs the exact test
        self.limit = sys.get_int_max_str_digits()
        self.bits = 3 * self.limit or inf

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def accept(self, op: str) -> bool:
        """Consume the next token if its text is ``op``."""
        if self.tokens[self.index].text == op:
            self.index += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self._fail(self.peek(), f"'{text}'")

    def number(self, expected: str) -> tuple[_Token, int | Fraction]:
        """The number token and its exact value: an int unless it has a '.'
        and is not whole, then a Fraction."""
        tok = self.peek()
        if tok.kind != "number":
            self._fail(tok, expected)
        self.index += 1
        whole, point, frac = tok.text.partition(".")
        if self.limit and (digits := len(whole) + len(frac)) > self.limit:
            self._fail(tok, f"a number of at most {self.limit} digits", f"{digits} digits")  # str() could not print it
        return tok, _exact(Fraction(int(whole + frac), 10 ** len(frac))) if point else int(whole)

    def integer(self, expected: str, least: int = 0, most: float = inf) -> int:
        """An integer from ``least`` to ``most``, or a syntax error at its token;
        a decimal is an error here.  Constants and log exponents read it."""
        tok, value = self.number(expected)
        if "." in tok.text:
            self._fail(tok, "an integer")
        if not least <= value <= most:
            self._fail(tok, expected)
        return value

    @staticmethod
    def _fail(tok: _Token, expected: str, found: Optional[str] = None):
        if found is None:
            found = "end of input" if tok.kind == "end" else f"'{tok.text}'"
            if tok.text == "/":  # a rational literal's '/' is read with its number and never fails here
                found += " (division is allowed only between two numbers, as in 2/3)"
        raise IntegrandSyntaxError(tok.position, expected, found) from None

    # Each integrand rule returns its canonical text and its expansion
    # {(x power, log power, rate): coeff}, where rate is the term's decay
    # rate, 0 for a term without an exponential: exponential factors multiply
    # by adding their rates, as x and log powers add.  Like terms merge as
    # each product forms, so a product of k binomials holds at most k + 1
    # terms, not 2^k.  A sum that cancels may stay as a zero coefficient,
    # which to_integral_spec skips, and keys keep the order in which they
    # first appear in the full expansion, so a rejection names the same
    # first offender.  A sum keeps its parentheses as a factor of a
    # product and as a whole term after '-', and drops them everywhere else;
    # a text that starts with '-' keeps them everywhere but at an expr's start.
    # Every number in an expansion is an int unless it is not whole.

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> tuple[str, dict]:
        negative = self.accept("-")
        text, terms = self.parse_term()
        if negative:
            text, terms = "-" + _grouped(text), {key: -c for key, c in terms.items()}
        while (op := self.peek().text) in ("+", "-"):
            self.index += 1
            tok = self.peek()
            term_text, term_terms = self.parse_term()
            text += f" {op} {_grouped(term_text) if op == '-' or term_text[0] == '-' else term_text}"
            merged = {}
            for key, c in term_terms.items():
                if op == "-":
                    c = -c
                merged[key] = _exact(terms[key] + c) if key in terms else c
            terms.update(self._check_caps(tok, merged))
        return text, terms

    # term := factor ('*' factor)*
    def parse_term(self) -> tuple[str, dict]:
        texts, terms = [], None
        while terms is None or self.accept("*"):
            tok = self.peek()
            factor_text, factor_terms = self.parse_factor()
            texts.append(factor_text)
            terms = self._check_caps(tok, factor_terms if terms is None else _times(terms, factor_terms))
        return (texts[0] if len(texts) == 1 else "*".join(map(_grouped, texts))), terms

    def _check_caps(self, tok: _Token, terms: dict) -> dict:
        """``terms``, or a syntax error at ``tok`` if a term is past a cap.
        An int costs one comparison: one of at most ``MAX_X_POWER`` in size
        or ``self.bits`` bits is within its digit cap."""
        bits = self.bits
        for (x, n, rate), c in terms.items():
            if n > MAX_LOG_POWER:
                self._fail(tok, f"log powers summing to at most {MAX_LOG_POWER} in a term", f"a sum of {n}")
            if x.__class__ is not int or not -MAX_X_POWER <= x <= MAX_X_POWER:
                self._check_digits(tok, x, "an x power")
                if abs(x) > MAX_X_POWER:
                    self._fail(tok, f"x powers summing to at most {MAX_X_POWER} in size in a term", f"a sum of {x}")
            if rate.__class__ is not int or rate.bit_length() > bits:
                self._check_digits(tok, rate, "a decay rate")
            if c.__class__ is not int or c.bit_length() > bits:
                self._check_digits(tok, c, "a term coefficient")
        return terms

    def _check_digits(self, tok: _Token, value: int | Fraction, what: str) -> None:
        """A syntax error at ``tok`` if ``str()`` could not print ``value``."""
        part = abs(value) if value.__class__ is int else max(abs(value.numerator), value.denominator)
        if part.bit_length() > self.bits and part >= 10**self.limit:
            self._fail(tok, f"{what} of at most {self.limit} digits", "one with more")

    def parse_factor(self) -> tuple[str, dict]:
        tok = self.peek()
        if tok.kind == "number":
            value = self.parse_rational()
            return _fraction_text(value), {(0, 0, 0): value}
        if self.accept("("):
            if self.depth == MAX_NESTING:
                self._fail(tok, f"at most {MAX_NESTING} nested parentheses")
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "name":
            self.index += 1
            if tok.text == "x":
                return self.parse_x()
            if tok.text == "exp":
                return self.parse_exp()
            if tok.text == "log":
                return self.parse_log()
            raise UnsupportedIntegrandError(
                "only x powers, decaying exponentials exp(-c*x) and integer powers of log(x) are supported",
                tok.text,
                tok.position,
            )
        self._fail(tok, "a factor (number, x, exp, log or '(')")

    def parse_rational(self) -> int | Fraction:
        tok, value = self.peek(), self.number("a number")[1]
        if self.accept("/"):
            den_tok, den = self.number("a denominator")
            if den == 0:
                self._fail(den_tok, "a nonzero denominator", "'0'")
            value = _exact(Fraction(value, den))
        self._check_digits(tok, value, "a number")
        return value

    def parse_x(self) -> tuple[str, dict]:
        if not self.accept("^"):
            return "x", {(1, 0, 0): 1}
        self.expect("(")
        negative = self.accept("-")
        exponent = self.parse_rational()
        if negative:
            exponent = -exponent
        self.expect(")")
        return f"x^({_fraction_text(exponent)})", {(exponent, 0, 0): 1}

    def parse_exp(self) -> tuple[str, dict]:
        self.expect("(")
        self.expect("-")
        rate, tok = 1, self.peek()
        if tok.kind == "number":
            rate = self.parse_rational()
            self.accept("*")
        self.expect("x")
        self.expect(")")
        if rate <= 0:
            raise UnsupportedIntegrandError("the exponential decay rate must be positive", _exp_text(rate), tok.position)
        return _exp_text(rate), {(0, 0, rate): 1}

    def parse_log(self) -> tuple[str, dict]:
        self.expect("(")
        self.expect("x")
        self.expect(")")
        power = self.integer(f"an exponent from 1 to {MAX_LOG_POWER}", 1, MAX_LOG_POWER) if self.accept("^") else 1
        return _log_text(power), {(0, power, 0): 1}

    # cterm := cfactor ('*' cfactor)*
    def parse_constant_term(self, coeff: int) -> list:
        """One term, signed by ``coeff``, as (vector, coefficient) pairs; delta^d expands."""
        vector, d = [0, 0], 0
        while True:
            tok, (scalar, i, e) = self.peek(), self.parse_constant_factor()
            coeff *= scalar
            if i == "delta":
                d += e
                if d > MAX_ZETA_INDEX:  # delta^d expands into d + 1 terms
                    self._fail(tok, f"delta exponents summing to at most {MAX_ZETA_INDEX} in a term", f"a sum of {d}")
            elif e:
                vector.extend([0] * (i + 1 - len(vector)))
                vector[i] += e
            if not self.accept("*"):
                break
        gamma, log_mu, *rest = vector  # entries 0 and 1
        return [((gamma + d - j, log_mu + j, *rest), coeff * comb(d, j)) for j in range(d + 1)]

    def parse_constant_factor(self) -> tuple:
        """A factor as (scalar, generator position or 'delta', exponent).

        A scalar is an ``int``, or a ``Fraction`` when it has a denominator."""
        tok = self.peek()
        if tok.kind == "number":
            num = self.integer("a number")
            if not self.accept("/"):
                return num, None, 0
            den_tok = self.peek()
            den = self.integer("a denominator")
            if den == 0:
                self._fail(den_tok, "a nonzero denominator", "'0'")
            return Fraction(num, den), None, 0
        if tok.kind != "name":
            self._fail(tok, "a number or a constant")
        self.index += 1
        if tok.text == "zeta":
            self.expect("(")
            k = self.integer(f"a zeta index from 2 to {MAX_ZETA_INDEX}", 2, MAX_ZETA_INDEX)
            self.expect(")")
            i = zeta_gen(k).index
        elif tok.text in ("delta", "pi"):
            i = tok.text
        else:
            try:
                i = generator_from_name(tok.text).index
            except ValueError:
                self._fail(tok, "a constant")
        most = MAX_ZETA_INDEX
        exponent = self.integer(f"an exponent up to {most}", 0, most) if self.accept("^") else 1
        if i == "pi":
            if exponent % 2:
                self._fail(tok, "an even power of pi (pi^2 = 6*zeta(2)) or sqrt_pi", f"'pi^{exponent}'")
            return 6 ** (exponent // 2), zeta_gen(2).index, exponent // 2  # pi^2 = 6*zeta(2)
        return 1, i, exponent


def parse_integrand(text: str) -> Integrand:
    """Parse the expression language into its canonical text and expansion;
    raises with a position on failure."""
    parser = _Parser(text)
    integrand = Integrand(*parser.parse_expr())
    if parser.peek().kind != "end":
        parser._fail(parser.peek(), "end of input")
    return integrand


def parse_constant(text: str) -> SymbolicConstant:
    """Parse the display form produced by :meth:`SymbolicConstant.render`.

    Accepts the plain and the paper-style spellings (``delta``, even powers
    of ``pi``); raises :class:`IntegrandSyntaxError` with a position on
    failure.
    """
    parser = _Parser(text)
    sign = -1 if parser.accept("-") else 1
    pairs = []
    while True:
        pairs += parser.parse_constant_term(sign)
        tok = parser.peek()
        if tok.kind == "end":
            return _place(pairs)
        if not (parser.accept("+") or parser.accept("-")):
            parser._fail(tok, "'+', '-' or end of input")
        sign = 1 if tok.text == "+" else -1


# --- normalization ----------------------------------------------------------


def to_integral_spec(integrand: Integrand) -> IntegralSpec:
    """Map a parsed integrand onto the supported integral class.  Terms whose
    coefficients cancelled to zero are skipped: every check reads the rest.
    The spec's numbers are Fractions, as the engine takes them."""
    terms = [(key, c) for key, c in integrand.terms.items() if c]
    if not terms:
        raise UnsupportedIntegrandError("the integrand is identically zero", integrand.text)

    rates = {r for (_, _, r), _ in terms}
    if 0 in rates:
        x, n, c = next((x, n, c) for (x, n, r), c in terms if not r)
        raise UnsupportedIntegrandError("every nonzero term needs an exponential factor", _term_text(x, n, c))
    if len(rates) > 1:
        raise UnsupportedIntegrandError(
            "all terms must share one decay rate",
            ", ".join(map(_exp_text, sorted(rates))),
        )
    mu = rates.pop()

    log_powers = {n for (_, n, _), _ in terms}
    if len(log_powers) > 1:
        raise UnsupportedIntegrandError(
            "all terms must carry the same power of log(x)",
            ", ".join(map(_log_text, sorted(log_powers))),
        )
    log_power = log_powers.pop()

    # one rate and one log power: the keys differ in their x power only
    base = min(p for (p, _, _), _ in terms)
    prefactor = []
    for (p, _, _), c in terms:
        step = p - base
        if step.denominator != 1:
            raise UnsupportedIntegrandError(
                "x powers must differ by integers", f"x^({_fraction_text(p)})"
            )
        prefactor.append(PrefactorTerm(int(step), Fraction(c)))
    twice = 2 * (base + 1)
    if twice < 1 or twice.denominator != 1:
        raise UnsupportedIntegrandError(
            "the base exponent s must be a positive integer or half-integer",
            f"x^({_fraction_text(base)})",
        )
    return IntegralSpec(tuple(sorted(prefactor)), ArgPoint(int(twice)), log_power, Fraction(mu))
