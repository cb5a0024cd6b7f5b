"""Integrand language: parsing, printing, normalization, diagnostics."""

import random
from fractions import Fraction
from math import comb

import pytest

from explogint.evaluator import IntegralSpec, PrefactorTerm, eval_general
from explogint.parser import (
    ExpFactor,
    IntegrandSyntaxError,
    LogFactor,
    NumberLit,
    Product,
    Sum,
    UnsupportedIntegrandError,
    VarX,
    XPower,
    ast_to_text,
    parse_constant,
    parse_integrand,
    to_integral_spec,
)
from explogint.special_values import ArgPoint

HALF = Fraction(1, 2)


class TestGoldenNormalizations:
    def test_shifted_half_integer_integrand(self):
        spec = to_integral_spec(
            parse_integrand("(x - 1/2) * x^(-1/2) * exp(-x) * log(x)")
        )
        assert spec.prefactor == (
            PrefactorTerm(0, Fraction(-1, 2)),
            PrefactorTerm(1, Fraction(1)),
        )
        assert spec.s == ArgPoint.of(HALF)
        assert spec.log_power == 1
        assert spec.mu == 1

    def test_cubed_log(self):
        spec = to_integral_spec(parse_integrand("exp(-2*x) * log(x)^3"))
        assert spec.prefactor == (PrefactorTerm(0, Fraction(1)),)
        assert spec.s == ArgPoint.of(1)
        assert spec.log_power == 3
        assert spec.mu == 2

    def test_integer_power(self):
        spec = to_integral_spec(parse_integrand("x^(3)*exp(-x)*log(x)"))
        assert spec.s == ArgPoint.of(4)
        assert spec.prefactor == (PrefactorTerm(0, Fraction(1)),)

    def test_monomial_with_coefficient(self):
        spec = to_integral_spec(parse_integrand("2*x*exp(-x)*log(x)"))
        assert spec.s == ArgPoint.of(2)
        assert spec.prefactor == (PrefactorTerm(0, Fraction(2)),)

    def test_product_of_binomials_expands(self):
        spec = to_integral_spec(parse_integrand("(x - 2)*(x - 3)*exp(-x)*log(x)^2"))
        assert spec.s == ArgPoint.of(1)
        assert spec.prefactor == (
            PrefactorTerm(0, Fraction(6)),
            PrefactorTerm(1, Fraction(-5)),
            PrefactorTerm(2, Fraction(1)),
        )
        assert spec.log_power == 2

    def test_decimal_rate_is_exact(self):
        spec = to_integral_spec(parse_integrand("exp(-0.5*x)*log(x)"))
        assert spec.mu == Fraction(1, 2)

    def test_implicit_multiplication_in_exp(self):
        spec = to_integral_spec(parse_integrand("exp(-2x)*log(x)"))
        assert spec.mu == 2

    def test_long_product_merges_like_terms(self):
        # (x + 1)^40 written as 40 factors: 41 terms, never 2^40 cross terms
        spec = to_integral_spec(parse_integrand("*".join(["(x + 1)"] * 40) + "*exp(-x)"))
        assert spec.prefactor == tuple(PrefactorTerm(k, Fraction(comb(40, k))) for k in range(41))

    def test_corpus_normalizes(self, corpus):
        for text in corpus:
            spec = to_integral_spec(parse_integrand(text))
            assert spec.mu is not None and spec.mu > 0
            assert spec.s.twice >= 1


class TestRoundTrip:
    def test_corpus_round_trips(self, corpus):
        for text in corpus:
            ast = parse_integrand(text)
            assert parse_integrand(ast_to_text(ast)) == ast

    def test_randomized_asts_round_trip(self):
        rng = random.Random(90210)
        for _ in range(300):
            ast = random_ast(rng, depth=0)
            printed = ast_to_text(ast)
            # repr names every node's type; == alone would let NumberLit(2)
            # stand in for LogFactor(2), since tree nodes compare as tuples
            assert repr(parse_integrand(printed)) == repr(ast), printed

    def test_distinct_nodes_survive(self):
        # x and x^(1) are different parse trees and print differently
        assert parse_integrand("x^(1)*exp(-x)") != parse_integrand("x*exp(-x)")
        assert ast_to_text(parse_integrand("x^(1)*exp(-x)")) == "x^(1)*exp(-x)"


def random_rational(rng, allow_negative=False):
    num = rng.randint(0 if not allow_negative else -12, 12)
    den = rng.randint(1, 6)
    return Fraction(num, den)


def random_simple_factor(rng):
    roll = rng.random()
    if roll < 0.2:
        return NumberLit(abs(random_rational(rng)))
    if roll < 0.4:
        return VarX()
    if roll < 0.6:
        return XPower(random_rational(rng, allow_negative=True))
    if roll < 0.8:
        rate = abs(random_rational(rng)) + 1
        return ExpFactor(rate)
    return LogFactor(rng.randint(1, 4))


def random_factor(rng, depth):
    # a Sum may appear only where the printer parenthesizes it
    if depth < 2 and rng.random() < 0.25:
        return random_sum(rng, depth + 1)
    return random_simple_factor(rng)


def random_term(rng, depth):
    count = rng.randint(1, 3)
    if count == 1:
        # a bare Sum as a whole term would flatten into the enclosing sum
        return random_simple_factor(rng)
    return Product(tuple(random_factor(rng, depth) for _ in range(count)))


def random_sum(rng, depth):
    terms = tuple(random_term(rng, depth) for _ in range(rng.randint(2, 3)))
    ops = tuple(rng.choice("+-") for _ in range(len(terms) - 1))
    return Sum(terms, ops)


def random_ast(rng, depth=0):
    if rng.random() < 0.5:
        return random_sum(rng, depth)
    return random_term(rng, depth)


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text,position",
        [
            ("exp(-x", 6),  # missing ')'
            ("x^", 2),  # missing '('
            ("x^(1/2", 6),  # unclosed power
            ("(x - 1/2", 8),  # unclosed group
            ("x x", 2),  # trailing garbage
            ("log(y)", 4),  # log only takes x
            ("exp(x)", 4),  # exp needs the minus sign
            ("2 + * 3", 4),  # missing factor
            ("3/0*exp(-x)", 2),  # zero denominator
            ("exp(-x)*log(x)^y", 15),  # log exponent must be an integer
            ("x^(-)*exp(-x)", 4),  # a sign needs a number
            ("x^(a)*exp(-x)", 3),  # an exponent is a number
            ("1/x*exp(-x)", 2),  # a denominator is a number
            ("exp(-2*y)", 7),  # exp only takes x
            ("exp(-x)*log(x)^0", 15),  # log exponent must be positive
        ],
    )
    def test_position_accurate(self, text, position):
        with pytest.raises(IntegrandSyntaxError) as exc_info:
            parse_integrand(text)
        assert exc_info.value.position == position

    def test_stray_character(self):
        with pytest.raises(IntegrandSyntaxError) as exc_info:
            parse_integrand("exp(-x) ? log(x)")
        assert exc_info.value.position == 8

    def test_message_mentions_expectation(self):
        with pytest.raises(IntegrandSyntaxError, match="expected"):
            parse_integrand("exp(-x")


class TestArbitraryText:
    def test_front_end_raises_only_its_own_errors(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        pieces = ["x", "exp", "log", "y", "(", ")", "-", "+", "*", "^", "/", ".", " ",
                  "0", "1", "2", "12", "1/2", "0.5", "exp(-", "log(x)", "x^(", "exp(-x)"]
        texts = st.lists(st.sampled_from(pieces), max_size=16).map("".join).filter(lambda t: len(t) <= 40)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(texts)
        def check(text):
            try:
                to_integral_spec(parse_integrand(text))
            except (IntegrandSyntaxError, UnsupportedIntegrandError):
                pass

        check()


class TestUnsupportedClass:
    def test_unknown_function_names_the_factor(self):
        with pytest.raises(UnsupportedIntegrandError) as exc_info:
            parse_integrand("sin(x)")
        assert exc_info.value.factor == "sin"
        assert exc_info.value.position == 0

    @pytest.mark.parametrize(
        "text",
        [
            "log(x)",  # no exponential at all
            "exp(-x)*exp(-x)",  # two exponentials in one term
            "exp(-x) + exp(-2*x)",  # mismatched decay rates
            "(1 + log(x))*exp(-x)",  # mixed log powers
            "(x^(1/2) + x)*exp(-x)",  # x powers differ by 1/2
            "x^(-1)*exp(-x)",  # s = 0
            "x^(-3/2)*exp(-x)",  # s = -1/2
            "x^(1/3)*exp(-x)",  # s off the half-integer lattice
            "(x - x)*exp(-x)",  # identically zero
        ],
    )
    def test_rejected_with_diagnostic(self, text):
        ast = parse_integrand(text)
        with pytest.raises(UnsupportedIntegrandError):
            to_integral_spec(ast)

    def test_nonpositive_decay_rate(self):
        with pytest.raises(UnsupportedIntegrandError):
            parse_integrand("exp(-0*x)")

    def test_diagnostic_names_offender(self):
        with pytest.raises(UnsupportedIntegrandError, match=r"x\^\(1/3\)"):
            to_integral_spec(parse_integrand("x^(1/3)*exp(-x)"))


class TestConstantLanguage:
    @pytest.mark.parametrize(
        "text,position",
        [
            ("gamma + tau", 8),  # unknown constant
            ("2*pi^3", 2),  # pi takes even exponents only
            ("1.5*gamma", 0),  # constants have integer numbers only
            ("gamma +", 7),  # missing term
            ("3/0", 2),  # zero denominator
            ("zeta(x)", 5),  # zeta index must be an integer
            ("gamma^x", 6),  # exponents are integers
            ("gamma gamma", 6),  # terms are joined by '+' or '-'
            ("zeta(2.5)", 5),  # a decimal zeta index
            ("1/2.5*gamma", 2),  # a decimal denominator
            ("gamma + tau + 1.5", 8),  # errors are reported in reading order
        ],
    )
    def test_rejection_names_the_offending_token(self, text, position):
        with pytest.raises(IntegrandSyntaxError) as exc_info:
            parse_constant(text)
        assert exc_info.value.position == position

    @pytest.mark.parametrize("paper_style", [False, True])
    def test_deep_closed_form_round_trips(self, paper_style):
        # s = 7/2, n = 14: one constant of 4542 monomials
        closed = eval_general(IntegralSpec.simple(ArgPoint.of(Fraction(7, 2)), 14))
        (const,) = [c for _, c in closed.terms]
        assert parse_constant(const.render(paper_style=paper_style)) == const
