"""Euler's zeta(2k) = c_k zeta(2)^k in the ring: the coefficients, the identities that
``==`` now decides, the reduced engine blocks, and binding of zeta(2)'s powers."""

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from explogint import parse_constant
import explogint.ring as ring
from explogint.cli import main
from explogint.evaluator import eval_general, eval_In
from explogint.parser import IntegrandSyntaxError, parse_integrand, to_integral_spec
from explogint.ring import (
    ONE,
    SQRT_PI_CONST,
    SymbolicConstant,
    _ZETA2,
    euler_coefficient,
    sum_of_products,
    tangent_numbers,
    zeta_const,
    zeta_gen,
)
from explogint.special_values import ArgPoint, gamma_deriv_at
from test_evaluator import blocks_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import draws  # noqa: E402

ZETA2 = zeta_const(2)
PI_SQUARED = 6 * ZETA2


def test_tangent_numbers_give_sympys_bernoulli_numbers():
    sympy = pytest.importorskip("sympy")
    t = tangent_numbers(40)
    assert t[:4] == [1, 2, 16, 272]
    for k in range(1, 41):  # |B_2k| = 2k T_k / (4^k (4^k - 1)), signs alternating from B_2 > 0
        b = Fraction((-1) ** (k + 1) * 2 * k * t[k - 1], 4**k * (4**k - 1))
        assert b == Fraction(str(sympy.bernoulli(2 * k))), 2 * k


def test_new_tangent_numbers_extend_the_table(monkeypatch):
    # each first call for a new k extends one table rather than computing T_1 .. T_k again
    monkeypatch.setattr(ring, "_tangents", ((1,), [1]))
    euler_coefficient.cache_clear()
    start = time.process_time()
    for k in range(476, 501):
        euler_coefficient(k)
    assert time.process_time() - start < 0.3
    assert tangent_numbers(4) == [1, 2, 16, 272] and len(ring._tangents[0]) == 500


def test_coefficients_times_zeta2_powers_give_mpmaths_even_zetas():
    mpmath = pytest.importorskip("mpmath")
    assert (euler_coefficient(1), euler_coefficient(2), euler_coefficient(3)) == (1, Fraction(2, 5), Fraction(8, 35))
    with mpmath.workdps(60):
        for k in range(1, 41):
            c = euler_coefficient(k)
            value = mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(2) ** k
            assert abs(value - mpmath.zeta(2 * k)) <= mpmath.mpf(10) ** -58 * mpmath.zeta(2 * k), k


SECANT = [1, 1, 5, 61, 1385, 50521, 2702765]  # E_0, E_2, ..., E_12


@pytest.mark.parametrize("n", range(13))
def test_reflection_identity_is_ring_equality(n):
    # Gamma(s) Gamma(1 - s) = pi / sin(pi s), differentiated n times at s = 1/2; pi = sqrt_pi^2
    half = ArgPoint.of(Fraction(1, 2))
    left = sum_of_products((math.comb(n, k) * (-1) ** (n - k), gamma_deriv_at(k, half), gamma_deriv_at(n - k, half))
                           for k in range(n + 1))
    right = SECANT[n // 2] * SQRT_PI_CONST**2 * PI_SQUARED ** (n // 2) if n % 2 == 0 else 0 * ONE
    assert left == right


def test_even_zetas_read_from_text_and_json_are_reduced():
    assert parse_constant("zeta(4)") == parse_constant("2/5*zeta(2)^2") == zeta_const(4)
    assert parse_constant("zeta(6)^2*gamma") == Fraction(64, 1225) * ZETA2**6 * parse_constant("gamma")
    assert SymbolicConstant.from_json({"terms": [{"coeff": "5/2", "powers": {"zeta(4)": 1}}]}) == ZETA2**2
    assert SymbolicConstant({((zeta_gen(8), 1),): Fraction(1)}) == euler_coefficient(4) * ZETA2**4
    # the tables' Gamma''''(1), transcribed in pi
    assert parse_constant("gamma^4 + pi^2*gamma^2 + 8*zeta(3)*gamma + 3/20*pi^4") == eval_In(4)
    assert eval_In(4).render(paper_style=True).endswith(" + 3/20*pi^4")


def test_the_largest_zeta_index_reduces_quickly():
    euler_coefficient.cache_clear()
    start = time.process_time()
    const = parse_constant("zeta(1000)")
    assert time.process_time() - start < 0.5
    assert [m.powers for m in const.terms] == [((zeta_gen(2), 500),)]


def test_reduced_zeta2_exponent_is_capped_before_any_power_forms():
    # zeta(1000)^3 would carry c_500^3, 5,792 digits a side, past what str and the readers take
    start = time.process_time()
    for text, position in [("zeta(1000)^1000", 0), ("delta^1000*zeta(1000)^1000", 11), ("zeta(1000)^2*zeta(4)", 13)]:
        with pytest.raises(IntegrandSyntaxError) as exc_info:
            parse_constant(text)
        assert exc_info.value.position == position, text
    every_even = {f"zeta({2 * k})": 1000 for k in range(2, 501)}
    for powers in [every_even, {"zeta(1000)": 3}, {"zeta(2)": 999, "zeta(4)": 1}]:
        with pytest.raises(ValueError, match="must be at most 1000"):
            SymbolicConstant.from_json({"terms": [{"coeff": "1", "powers": powers}]})
    with pytest.raises(ValueError, match="must be at most 1000"):
        SymbolicConstant({((zeta_gen(1000), 3),): Fraction(1)})
    assert time.process_time() - start < 0.5


def test_the_largest_reduced_powers_read_back():
    const = parse_constant("zeta(1000)^2*gamma")
    assert [m.powers for m in const.terms] == [((parse_constant("gamma").terms[0].powers[0][0], 1), (zeta_gen(2), 1000))]
    assert parse_constant(const.render()) == const
    assert SymbolicConstant.from_json(json.loads(json.dumps(const.to_json()))) == const
    assert SymbolicConstant.from_json({"terms": [{"coeff": "1", "powers": {"zeta(1000)": 2, "gamma": 1}}]}) == const


@pytest.mark.parametrize("text", ["zeta(2)^501", "zeta(2)^1000*gamma"])
def test_paper_text_past_pi_1000_reads_back(text):
    # paper style prints zeta(2)^k as pi^(2k), and the parser takes pi^e up to 2*MAX_ZETA_INDEX
    const = parse_constant(text)
    assert "*pi^" in const.render(paper_style=True)
    assert parse_constant(const.render(paper_style=True)) == const


def test_no_engine_block_holds_an_even_zeta_above_zeta2():
    requests = draws.verify_mix(1) + draws.deep_log(1)
    forms = [eval_general(to_integral_spec(parse_integrand(req["expr"]))) for req in requests]
    blocks = blocks_of(*forms)
    assert len(blocks) > 100
    assert max(e[_ZETA2] for K in blocks for e in K._d if len(e) > _ZETA2) >= 7  # zeta(2)^7 from zeta(14)
    assert not [e for K in blocks for e in K._d if any(e[_ZETA2 + 2::2])]


@pytest.mark.parametrize("expr", [
    "x^(9/2)*exp(-x)*log(x)^30",
    "x^(19/2)*exp(-37*x)*log(x)^30",
    "x^(9/2)*exp(-x)*log(x)^32",
    "x^(19/2)*exp(-37*x)*log(x)^32",
    "x^(37/2)*exp(-x)*log(x)^34",
])
def test_zeta2_powers_bind_with_guard_bits(expr, capsys):
    # zeta(2)^15 to zeta(2)^17 in forms whose Leibniz sums cancel deeply, each bound at 2^-BITS
    assert main(["verify", expr, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass" and doc["rel_err"] < 1e-12
