"""Acceptance suite: the six exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and nowhere else:

    1. catalog: symbolic equality + numeric rel err <= 1e-9 over
       mu in {1/2, 1, 2, 10}, n in {0..4}, nu in {1, 2, 3, 1/2, 3/2, 7/2}
    2. special values: exact transcriptions, numerics to 1e-12
    3. weight: grade(I_n) homogeneous of weight n for n <= 10,
       numerics to 1e-8 for n <= 6
    4. properties: ring axioms exact (1000 triples), evaluation
       homomorphism 1e-12, psi^(m) recurrence 1e-12, quadrature
       convergence flags at tol 1e-10
    5. oracle triangle at n = 4, 5: recurrence vs quadrature vs finite
       differences, pairwise 1e-6
    6. parser: corpus round trip, position-accurate diagnostics, exit codes
"""

import math
import random
import time
from fractions import Fraction

import pytest

import explogint.cli as cli
from explogint.catalog import run_catalog
from explogint.evaluator import IntegralSpec, eval_In
from explogint.oracle import Constants, QuadratureResult, fixed_log, quadrature
from explogint.parser import IntegrandSyntaxError, parse_integrand
from explogint.ring import (
    GAMMA,
    LOG_MU,
    SQRT_PI_CONST,
    Grade,
    grade,
    rational_const,
    zeta_const,
)
from explogint.special_values import ArgPoint, gamma_deriv_at, psi_deriv_at

from special_numerics import digamma_m, gamma_derivative_fd, gamma_value
from test_ring import random_constant


def _report(name):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"ACCEPTANCE {name}: {'PASS' if exc_type is None else 'FAIL'}")
            return False

    return _Reporter()


def test_criterion_1_catalog_reproduction():
    with _report("1 catalog reproduction"):
        start = time.monotonic()
        checks = run_catalog(mu_grid=(0.5, 1.0, 2.0, 10.0), max_n=4, quad_tol=1e-10)
        elapsed = time.monotonic() - start
        ids = {c.id for c in checks}
        assert ids == {
            "4.331.1", "4.335.1", "4.335.3",
            "4.352.1", "4.352.2", "4.352.3", "4.352.4",
            "4.353.1", "4.353.2",
        }
        assert {c.params["nu"] for c in checks if "nu" in c.params} == {"1", "2", "3", "1/2", "3/2", "7/2"}
        assert all(c.symbolic_equal for c in checks)
        assert all(c.numeric_rel_err <= 1e-9 for c in checks)
        assert all(c.status == "pass" for c in checks)
        assert elapsed < 30.0


def test_criterion_2_special_values(table):
    with _report("2 special values"):
        one = ArgPoint.of(1)
        # exact transcriptions
        assert psi_deriv_at(0, one) == -GAMMA
        assert psi_deriv_at(1, one) == zeta_const(2)
        assert psi_deriv_at(2, one) == -2 * zeta_const(3)
        for n in range(0, 7):
            point = ArgPoint(2 * n + 1)  # n + 1/2
            double_fact = math.prod(range(1, 2 * n, 2))
            expected = rational_const(Fraction(double_fact, 2**n)) * SQRT_PI_CONST
            assert gamma_deriv_at(0, point) == expected
        # numeric oracles agree with evaluation of the symbolic forms
        for m in range(3):
            exact = psi_deriv_at(m, one).evaluate(table)
            numeric = digamma_m(m, 1.0)
            assert abs(exact - numeric) <= 1e-12 * max(1.0, abs(numeric))
        for n in range(0, 7):
            point = ArgPoint(2 * n + 1)
            exact = gamma_deriv_at(0, point).evaluate(table)
            numeric = gamma_value(n + 0.5)
            assert abs(exact - numeric) <= 1e-12 * max(1.0, abs(numeric))


def test_criterion_3_weight_homogeneity(table):
    with _report("3 weight homogeneity"):
        for n in range(11):
            assert grade(eval_In(n)) == Grade("homogeneous", Fraction(n))
        for n in range(7):
            exact = eval_In(n).evaluate(table)
            result = quadrature(IntegralSpec.simple(1, n), 1.0, rel_tol=1e-10)
            assert result.converged
            assert abs(result.value - exact) <= 1e-8 * max(1.0, abs(exact))


def test_criterion_4_property_suites(ints, catalog_checks):
    with _report("4 property suites"):
        # ring axioms, exact equality on 1000 randomized triples
        rng = random.Random(1_000_003)
        for _ in range(1000):
            a = random_constant(rng, max_terms=3)
            b = random_constant(rng, max_terms=3)
            c = random_constant(rng, max_terms=3)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
        # evaluation homomorphism
        bindings = Constants({**ints, LOG_MU: fixed_log(3.0)})
        for _ in range(300):
            a = random_constant(rng, num_bound=1000, den_bound=60, max_exp=2)
            b = random_constant(rng, num_bound=1000, den_bound=60, max_exp=2)
            lhs = (a * b).evaluate(bindings)
            rhs = a.evaluate(bindings) * b.evaluate(bindings)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))
        # Gamma shift identity d^k/dx^k [Gamma(x+1) = x Gamma(x)], symbolically,
        # randomized points and orders
        for _ in range(200):
            x = ArgPoint(rng.randint(1, 20))
            k = rng.randint(0, 4)
            expected = x.value * gamma_deriv_at(k, x)
            if k:
                expected = expected + k * gamma_deriv_at(k - 1, x)
            assert gamma_deriv_at(k, x.shifted(1)) == expected
        # psi^(m)(q+1) - psi^(m)(q) = (-1)^m m! q^(-m-1), numerically
        for _ in range(100):
            m = rng.randint(1, 8)
            q = rng.uniform(0.05, 30.0)
            rhs = (-1) ** m * math.factorial(m) * q ** (-m - 1)
            lhs = digamma_m(m, q + 1.0) - digamma_m(m, q)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        # quadrature convergence flags on every catalog integrand at 1e-10
        assert all(c.converged for c in catalog_checks)


def test_criterion_5_oracle_triangle(table):
    with _report("5 oracle triangle n=4,5"):
        for n in (4, 5):
            by_recurrence = eval_In(n).evaluate(table)
            by_integration = quadrature(
                IntegralSpec.simple(1, n), 1.0, rel_tol=1e-10
            ).value
            by_differentiation = gamma_derivative_fd(n, 1.0)
            values = (by_recurrence, by_integration, by_differentiation)
            scale = max(abs(v) for v in values)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(values[i] - values[j]) <= 1e-6 * scale


def test_criterion_6_parser(corpus, capsys, monkeypatch):
    with _report("6 parser round trip and diagnostics"):
        # corpus: at least 20 integrands, all nine catalog integrands included
        assert len(corpus) >= 20
        for text in corpus:
            integrand = parse_integrand(text)
            assert parse_integrand(integrand.text) == integrand
        # malformed inputs carry accurate positions
        for text, position in [("exp(-x", 6), ("x^", 2), ("x x", 2), ("log(y)", 4)]:
            with pytest.raises(IntegrandSyntaxError) as exc_info:
                parse_integrand(text)
            assert exc_info.value.position == position
        # exit codes: 0 pass, 1 verification failure, 2 usage/parse error
        assert cli.main(["verify", "exp(-x)*log(x)"]) == 0
        assert cli.main(["eval", "exp(-x)*log("]) == 2
        assert cli.main(["eval", "sin(x)"]) == 2

        def bad_quadrature(spec, mu, rel_tol=1e-10):
            return QuadratureResult(1e9, 1e-12, 129, True)

        monkeypatch.setattr(cli, "quadrature", bad_quadrature)
        assert cli.main(["verify", "exp(-x)*log(x)"]) == 1
        capsys.readouterr()  # discard CLI output
