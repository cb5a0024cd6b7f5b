"""Integrand language: parsing, printing, normalization, diagnostics."""

import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from explogint.evaluator import IntegralSpec, PrefactorTerm, eval_general
from explogint.parser import (
    MAX_LOG_POWER,
    MAX_X_POWER,
    Integrand,
    IntegrandSyntaxError,
    UnsupportedIntegrandError,
    parse_constant,
    parse_integrand,
    to_integral_spec,
)
from explogint.ring import MAX_ZETA_INDEX, zeta_const
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

    @pytest.mark.parametrize(
        "text,summed",
        [
            # ids name the rates that add, so each case keeps a short distinct name
            pytest.param("exp(-x)*exp(-x)", "exp(-2*x)", id="1+1"),
            pytest.param("exp(-x)*exp(-2*x)*log(x)", "exp(-3*x)*log(x)", id="1+2"),
            pytest.param("exp(-1/2*x)*exp(-x)", "exp(-3/2*x)", id="1/2+1"),
            pytest.param("x*exp(-x)*log(x)^2*exp(-0.25*x)*exp(-x)", "x*exp(-9/4*x)*log(x)^2", id="1+1/4+1"),
            pytest.param("(exp(-x) + x*exp(-x))*exp(-x)", "(1 + x)*exp(-2*x)", id="sum-times-1"),
        ],
    )
    def test_exponentials_multiply_by_adding_rates(self, text, summed):
        assert to_integral_spec(parse_integrand(text)) == to_integral_spec(parse_integrand(summed))

    @pytest.mark.parametrize(
        "text,simplified",
        [
            pytest.param("exp(-x)*log(x) + exp(-x) - exp(-x)", "exp(-x)*log(x)", id="log-power"),
            pytest.param("x*exp(-x) + log(x) - log(x)", "x*exp(-x)", id="no-exponential"),
            pytest.param("exp(-x) + exp(-2*x) - exp(-2*x)", "exp(-x)", id="rate"),
            pytest.param("exp(-x) + x^(1/2)*exp(-x) - x^(1/2)*exp(-x)", "exp(-x)", id="x-power"),
        ],
    )
    def test_cancelled_terms_do_not_decide_the_class(self, text, simplified):
        assert to_integral_spec(parse_integrand(text)) == to_integral_spec(parse_integrand(simplified))

    def test_long_product_merges_like_terms(self):
        # (x + 1)^40 written as 40 factors: 41 terms, never 2^40 cross terms
        spec = to_integral_spec(parse_integrand("*".join(["(x + 1)"] * 40) + "*exp(-x)"))
        assert spec.prefactor == tuple(PrefactorTerm(k, Fraction(comb(40, k))) for k in range(41))

    def test_corpus_normalizes(self, corpus):
        for text in corpus:
            spec = to_integral_spec(parse_integrand(text))
            assert spec.mu is not None and spec.mu > 0
            assert spec.s.twice >= 1
            # the parser's ints stay inside it: the spec carries Fractions only
            assert type(spec.mu) is Fraction
            assert all(type(pf.coeff) is Fraction for pf in spec.prefactor)


class TestRoundTrip:
    def test_parse_returns_text_and_expansion(self):
        assert parse_integrand("(x + 1/2)*exp(-x)") == Integrand(
            "(x + 1/2)*exp(-x)",
            {(Fraction(1), 0, Fraction(1)): Fraction(1), (Fraction(0), 0, Fraction(1)): HALF},
        )

    def test_corpus_round_trips(self, corpus):
        for text in corpus:
            integrand = parse_integrand(text)
            assert parse_integrand(integrand.text) == integrand

    def test_random_texts_round_trip(self):
        rng = random.Random(90210)
        for _ in range(300):
            integrand = parse_integrand(random_text(rng))
            assert parse_integrand(integrand.text) == integrand, integrand.text

    @pytest.mark.parametrize(
        "text,canonical,terms",
        [
            ("-x*exp(-x)", "-x*exp(-x)", {(1, 0, 1): -1}),
            ("-(x+1)*exp(-x)", "-(x + 1)*exp(-x)", {(1, 0, 1): -1, (0, 0, 1): -1}),
            ("- 1/2*exp(-x) + x*exp(-x)", "-1/2*exp(-x) + x*exp(-x)", {(0, 0, 1): Fraction(-1, 2), (1, 0, 1): 1}),
            ("-(x - 1)", "-(x - 1)", {(1, 0, 0): -1, (0, 0, 0): 1}),
            # after '(' too; such a group keeps its parentheses wherever it is not first
            ("(-x)*exp(-x)", "(-x)*exp(-x)", {(1, 0, 1): -1}),
            ("2*(-x + 1)*exp(-x)", "2*(-x + 1)*exp(-x)", {(1, 0, 1): -2, (0, 0, 1): 2}),
            ("exp(-x) + (-x)", "exp(-x) + (-x)", {(0, 0, 1): 1, (1, 0, 0): -1}),
            ("-(-x)", "-(-x)", {(1, 0, 0): 1}),
        ],
    )
    def test_a_leading_minus_negates_the_first_term(self, text, canonical, terms):
        integrand = parse_integrand(text)
        assert integrand == Integrand(canonical, terms)
        assert parse_integrand(canonical) == integrand

    def test_random_signed_texts_round_trip(self):
        rng = random.Random(90211)
        for _ in range(300):
            integrand = parse_integrand(random_text(rng, signed=True))
            assert parse_integrand(integrand.text) == integrand, integrand.text

    def test_random_expansions_match_sympy(self):
        self.expansions_match_sympy(random.Random(4807))

    def test_random_signed_expansions_match_sympy(self):
        self.expansions_match_sympy(random.Random(4808), signed=True)

    @staticmethod
    def expansions_match_sympy(rng, signed=False):
        # An oracle for the parser's own arithmetic: log(x) and exp(-x) are
        # symbols L and E, so exp(-r*x) is E^r, and SymPy expands the text.
        sympy = pytest.importorskip("sympy")
        from sympy.parsing.sympy_parser import convert_xor, parse_expr, rationalize, standard_transformations

        x, L, E = sympy.symbols("x L E", positive=True)
        names = {"x": x, "log": lambda arg: L, "exp": lambda arg: E ** (-arg / x)}
        transformations = standard_transformations + (convert_xor, rationalize)
        for _ in range(300):
            text = random_text(rng, signed=signed)
            expected = {}
            for monomial, coeff in sympy.expand(parse_expr(text, names, transformations)).as_coefficients_dict().items():
                powers = monomial.as_powers_dict()
                key = tuple(Fraction(str(powers.get(symbol, 0))) for symbol in (x, L, E))
                if coeff:
                    expected[key] = Fraction(str(coeff))
            terms = {key: c for key, c in parse_integrand(text).terms.items() if c}
            assert terms == expected, text

    def test_distinct_nodes_survive(self):
        # x and x^(1) expand alike but print differently
        assert parse_integrand("x^(1)*exp(-x)") != parse_integrand("x*exp(-x)")
        assert parse_integrand("x^(1)*exp(-x)").text == "x^(1)*exp(-x)"


def random_rational(rng, allow_negative=False):
    num = rng.randint(0 if not allow_negative else -12, 12)
    den = rng.randint(1, 6)
    return f"{num}/{den}" if rng.random() < 0.5 else str(num)


def random_factor(rng, depth, signed=False):
    """Any factor text; a parenthesized sum, or a group in a group, may sit
    wherever a factor may."""
    if depth < 3 and rng.random() < 0.25:
        return f"({random_text(rng, depth + 1, signed)})"
    return rng.choice([
        random_rational(rng),
        f"{rng.randint(0, 9)}.{rng.randint(0, 99)}",
        "x",
        f"x^({random_rational(rng, allow_negative=True)})",
        f"exp(-{rng.randint(1, 5)}/{rng.randint(1, 3)}*x)",
        "exp(-x)",
        "log(x)",
        f"log(x)^{rng.randint(1, 4)}",
    ])


def random_text(rng, depth=0, signed=False):
    """A sum of products of factors; with ``signed``, each expr, nested ones too, may
    start with a '-'."""
    text = "-" if signed and rng.random() < 0.4 else ""
    for i in range(rng.randint(1, 3)):
        if i:
            text += f" {rng.choice('+-')} "
        text += "*".join(random_factor(rng, depth, signed) for _ in range(rng.randint(1, 3)))
    return text


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
            ("exp(-x)*log(x)^2.5", 15),  # log exponent must not be a decimal
            ("exp(-x)*log(x)^41", 15),  # log exponent above MAX_LOG_POWER
            ("exp(-x)*log(x)^99999999999999999999", 15),
            ("exp(-x)*log(x)^30*log(x)^30", 18),  # log powers add across factors
            ("log(x)^30*(1 + x*log(x)^30)*exp(-x)", 10),  # ... and through a group
            ("(log(x)^20*log(x)^20*log(x) - 1)*exp(-x)", 21),
            ("x^(10001)*exp(-x)", 0),  # |x power| above MAX_X_POWER
            ("x^(-10001)*exp(-x)", 0),
            ("x^(6000)*exp(-x)*x^(6000)", 17),  # x powers add across factors
            ("(1 + x^(5000))*x^(5001)*exp(-x)", 15),  # ... and through a group
        ],
    )
    def test_position_accurate(self, text, position):
        with pytest.raises(IntegrandSyntaxError) as exc_info:
            parse_integrand(text)
        assert exc_info.value.position == position

    def test_log_power_at_the_cap_parses(self):
        # Parsed only: the closed form at n = 40 takes seconds to build.
        assert MAX_LOG_POWER == 40
        for text in ("exp(-x)*log(x)^40", "log(x)^20*exp(-x)*log(x)^20", "(1 + x)*log(x)^39*exp(-x)*log(x)"):
            assert to_integral_spec(parse_integrand(text)).log_power == 40
        assert IntegralSpec.simple(1, 41).log_power == 41  # the library API is not capped

    def test_x_power_beyond_the_cap_names_the_sum(self):
        with pytest.raises(IntegrandSyntaxError, match="summing to at most 10000 in size in a term, found a sum of -10001$"):
            parse_integrand("x^(1/2)*exp(-x)*x^(-20003/2)")

    def test_x_power_at_the_cap_parses(self):
        # Parsed only: 10^4 steps above the base point take about a second to evaluate.
        assert MAX_X_POWER == 10**4
        for text in ("x^(10000)*exp(-x)", "x^(5000)*x^(5000)*exp(-x)", "(x^(10000) + x^(-10000))*exp(-x)"):
            assert max(abs(x) for x, _, _ in parse_integrand(text).terms) == 10**4
        assert to_integral_spec(parse_integrand("x^(9999)*exp(-x)")).s == ArgPoint.of(10**4)

    def test_coefficient_beyond_the_printable_digits_fails_at_its_factor(self):
        limit, nines = sys.get_int_max_str_digits(), "9" * 3000
        expected = f"expected a term coefficient of at most {limit} digits, found one with more$"
        with pytest.raises(IntegrandSyntaxError, match=expected) as exc:
            parse_integrand(f"{nines}*{nines}*exp(-x)")
        assert exc.value.position == 3001
        text = f"{'9' * limit}*exp(-x) + exp(-x)"  # the sum 10^limit has limit + 1 digits
        with pytest.raises(IntegrandSyntaxError, match="coefficient of at most") as exc:
            parse_integrand(text)
        assert exc.value.position == limit + len("*exp(-x) + ")
        assert parse_integrand(f"{'9' * (limit // 2)}*{'9' * (limit // 2)}*exp(-x)")

    def test_number_or_x_power_beyond_the_printable_digits_fails(self):
        # a decimal's denominator is 10^(digits after the point); coprime denominators multiply
        limit, a, b = sys.get_int_max_str_digits(), 10**2999 + 1, 10**2999 + 3
        for text, position, what in [(f"0.{'1' * limit}*exp(-x)", 0, "a number"),
                                     (f"exp(-0.{'1' * limit}*x)", 5, "a number"),
                                     (f"0.{'1' * 3000}/{a}*exp(-x)", 0, "a number"),
                                     (f"x^(1/{a})*x^(1/{b})*exp(-x)", len(f"x^(1/{a})*"), "an x power")]:
            with pytest.raises(IntegrandSyntaxError, match=f"expected {what} of at most {limit} digits") as exc:
                parse_integrand(text)
            assert exc.value.position == position

    def test_summed_decay_rate_beyond_the_printable_digits_fails_at_its_factor(self):
        # rates add across exponential factors; coprime denominators multiply
        limit, a, b = sys.get_int_max_str_digits(), 10**2999 + 1, 10**2999 + 3
        text = f"exp(-1/{a}*x)*exp(-1/{b}*x)"
        with pytest.raises(IntegrandSyntaxError, match=f"expected a decay rate of at most {limit} digits") as exc:
            parse_integrand(text)
        assert exc.value.position == len(f"exp(-1/{a}*x)*")

    def test_coefficient_cap_follows_the_interpreter_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)  # no limit
            assert parse_integrand(f"{'9' * 3000}*{'9' * 3000}*exp(-x)")
        finally:
            sys.set_int_max_str_digits(limit)

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

    def test_constant_reader_raises_only_syntax_errors(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        pieces = ["gamma", "log_mu", "log2", "sqrt_pi", "delta", "pi", "zeta(", "tau", "(", ")",
                  "-", "+", "*", "^", "/", ".", " ", "0", "1", "2", "12", "1001", "9999999"]
        texts = st.lists(st.sampled_from(pieces), max_size=16).map("".join).filter(lambda t: len(t) <= 40)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(texts)
        def check(text):
            try:
                parse_constant(text)
            except IntegrandSyntaxError:
                pass

        check()


class TestUnsupportedClass:
    def test_unknown_function_names_the_factor(self):
        with pytest.raises(UnsupportedIntegrandError) as exc_info:
            parse_integrand("sin(x)")
        assert exc_info.value.factor == "sin"
        assert exc_info.value.position == 0
        # exponentials multiply by adding rates, so the message names no "one exponential" limit
        assert "only x powers, decaying exponentials exp(-c*x) and integer powers of log(x)" in str(exc_info.value)

    @pytest.mark.parametrize(
        "text",
        [
            "log(x)",  # no exponential at all
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
        integrand = parse_integrand(text)
        with pytest.raises(UnsupportedIntegrandError):
            to_integral_spec(integrand)

    @pytest.mark.parametrize(
        "text,factor",
        [
            ("exp(-x) + exp(-1/2*x)", "exp(-1/2*x), exp(-x)"),
            ("exp(-3*x) + exp(-0.5*x)", "exp(-1/2*x), exp(-3*x)"),
        ],
    )
    def test_exponential_factors_print_as_parsed(self, text, factor):
        with pytest.raises(UnsupportedIntegrandError) as exc_info:
            to_integral_spec(parse_integrand(text))
        assert exc_info.value.factor == factor

    @pytest.mark.parametrize(
        "text,term",
        [
            ("(x + 1)*(log(x) + exp(-x))", "x*log(x)"),
            ("3 + exp(-x)", "3"),
            ("exp(-x) - 2*x^(1/2)*log(x)^2", "-2*x^(1/2)*log(x)^2"),
            ("exp(-x) - x + x*exp(-x)", "-x"),
        ],
    )
    def test_no_exponential_names_the_first_such_term(self, text, term):
        with pytest.raises(UnsupportedIntegrandError) as exc_info:
            to_integral_spec(parse_integrand(text))
        assert str(exc_info.value) == (
            f"unsupported integrand: every nonzero term needs an exponential factor (offending factor: {term})"
        )

    @pytest.mark.parametrize("text", ["x - x", "log(x) - log(x)", "exp(-x) - exp(-x)"])
    def test_cancelled_integrand_is_identically_zero(self, text):
        with pytest.raises(UnsupportedIntegrandError, match="identically zero"):
            to_integral_spec(parse_integrand(text))

    def test_nonpositive_decay_rate(self):
        with pytest.raises(UnsupportedIntegrandError) as exc_info:
            parse_integrand("exp(-0*x)")
        assert exc_info.value.position == 5  # the rate's token

    @pytest.mark.parametrize(
        "text,factor",
        [
            ("exp(-x) + exp(-x)*log(x)", "no log(x), log(x)"),
            ("exp(-x)*log(x)^3 - exp(-x)*log(x)", "log(x), log(x)^3"),
        ],
    )
    def test_log_powers_print_as_written(self, text, factor):
        with pytest.raises(UnsupportedIntegrandError) as exc_info:
            to_integral_spec(parse_integrand(text))
        assert str(exc_info.value) == (
            f"unsupported integrand: all terms must carry the same power of log(x) (offending factor: {factor})"
        )

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
            ("zeta(1001)", 5),  # a zeta index beyond MAX_ZETA_INDEX
            ("zeta(3000000)", 5),
            ("delta^1001", 6),  # delta^d expands into d + 1 terms
        ],
    )
    def test_rejection_names_the_offending_token(self, text, position):
        with pytest.raises(IntegrandSyntaxError) as exc_info:
            parse_constant(text)
        assert exc_info.value.position == position

    def test_overlong_number_fails_at_its_token(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(IntegrandSyntaxError, match=f"at most {limit} digits, found 5000 digits") as exc_info:
            parse_constant("gamma + 3*" + "9" * 5000)
        assert exc_info.value.position == 10

    def test_delta_exponents_of_a_term_are_capped_together(self):
        # delta^d expands into d + 1 terms, so the cap holds for the sum in a term
        start = time.process_time()
        with pytest.raises(IntegrandSyntaxError, match="delta exponents") as exc_info:
            parse_constant("*".join(["delta^1000"] * 8))
        assert time.process_time() - start < 0.5
        assert exc_info.value.position == len("delta^1000*")
        assert len(parse_constant("delta^1000").terms) == 1001
        assert parse_constant("delta^500*delta^500") == parse_constant("delta^1000")

    def test_largest_zeta_index_reads(self):
        assert parse_constant(f"zeta({MAX_ZETA_INDEX})") == zeta_const(MAX_ZETA_INDEX)

    @pytest.mark.parametrize("paper_style", [False, True])
    def test_deep_closed_form_round_trips(self, paper_style):
        # s = 7/2, n = 14: one constant of 4542 monomials
        closed = eval_general(IntegralSpec.simple(ArgPoint.of(Fraction(7, 2)), 14))
        (const,) = [c for _, c in closed.terms]
        assert parse_constant(const.render(paper_style=paper_style)) == const
