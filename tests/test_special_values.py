"""Exact Gamma/psi values and their consistency with the numeric oracle."""

from fractions import Fraction

import pytest

from explogint.oracle import digamma_m, gamma_derivative_fd, gamma_value
from explogint.ring import (
    GAMMA,
    LOG2_CONST,
    SQRT_PI_CONST,
    Grade,
    grade,
    rational_const,
    zeta_const,
)
from explogint.special_values import (
    ArgPoint,
    double_factorial_odd,
    gamma_at,
    gamma_deriv_at,
    harmonic,
    odd_harmonic,
    psi_deriv_at,
)

HALF = Fraction(1, 2)


class TestArgPoint:
    def test_construction(self):
        assert ArgPoint.of(1).twice == 2
        assert ArgPoint.of(HALF).twice == 1
        assert ArgPoint.of(Fraction(7, 2)).value == Fraction(7, 2)

    def test_rejects_nonpositive_and_off_lattice(self):
        with pytest.raises(ValueError):
            ArgPoint(0)
        with pytest.raises(ValueError):
            ArgPoint(-3)
        with pytest.raises(ValueError):
            ArgPoint.of(Fraction(1, 3))

    def test_shift(self):
        assert ArgPoint.of(HALF).shifted(2) == ArgPoint.of(Fraction(5, 2))


class TestCombinatorialHelpers:
    def test_harmonic_empty_sum(self):
        assert harmonic(0) == 0

    def test_harmonic_by_direct_summation(self):
        assert harmonic(4) == Fraction(25, 12)
        for n in range(12):
            assert harmonic(n) == sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))

    def test_odd_harmonic(self):
        assert odd_harmonic(0) == 0
        assert odd_harmonic(3) == 1 + Fraction(1, 3) + Fraction(1, 5)

    def test_double_factorial(self):
        assert double_factorial_odd(0) == 1  # (-1)!! == 1
        assert double_factorial_odd(1) == 1
        assert double_factorial_odd(3) == 15  # 1*3*5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            double_factorial_odd(-1)


class TestPsiValues:
    def test_psi_at_one(self):
        assert psi_deriv_at(0, ArgPoint.of(1)) == -GAMMA

    def test_psi_prime_at_one(self):
        assert psi_deriv_at(1, ArgPoint.of(1)) == zeta_const(2)

    def test_psi_double_prime_at_one(self):
        assert psi_deriv_at(2, ArgPoint.of(1)) == -2 * zeta_const(3)

    def test_psi_at_seven_halves(self):
        expected = (
            -GAMMA
            - 2 * LOG2_CONST
            + rational_const(2 * (1 + Fraction(1, 3) + Fraction(1, 5)))
        )
        assert psi_deriv_at(0, ArgPoint.of(Fraction(7, 2))) == expected

    def test_psi_at_integers_is_harmonic_shift(self):
        for n in range(1, 10):
            assert psi_deriv_at(0, ArgPoint.of(n)) == -GAMMA + rational_const(harmonic(n - 1))

    def test_psi_prime_at_half(self):
        # zeta(2, 1/2) = 3 zeta(2)
        assert psi_deriv_at(1, ArgPoint.of(HALF)) == 3 * zeta_const(2)

    def test_functional_equation_symbolically(self):
        for twice in range(1, 21):
            x = ArgPoint(twice)
            lhs = psi_deriv_at(0, x.shifted(1)) - psi_deriv_at(0, x)
            assert lhs == rational_const(1 / x.value)

    def test_derivative_shift_identity(self):
        # psi^(m)(x+1) - psi^(m)(x) = (-1)^m m! x^(-(m+1))
        import math

        for m in range(1, 5):
            for twice in range(1, 21):
                x = ArgPoint(twice)
                lhs = psi_deriv_at(m, x.shifted(1)) - psi_deriv_at(m, x)
                expected = Fraction((-1) ** m * math.factorial(m)) / x.value ** (m + 1)
                assert lhs == rational_const(expected)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            psi_deriv_at(-1, ArgPoint.of(1))

    def test_matches_numeric_oracle(self, table):
        bindings = table.bindings()
        for m in range(7):
            for twice in (1, 2, 3, 4, 5, 7, 9, 12):
                x = ArgPoint(twice)
                exact = psi_deriv_at(m, x).evaluate(bindings)
                numeric = digamma_m(m, float(x.value))
                # Evaluating the exact half-integer reduction cancels
                # (2^z - 1) zeta(z) against a similar-sized partial sum, so
                # high orders lose a couple of digits there.
                tol = 1e-12 if x.is_integer or m <= 4 else 5e-12
                assert abs(exact - numeric) <= tol * max(1.0, abs(numeric))


class TestGammaValues:
    def test_at_one(self):
        assert gamma_at(ArgPoint.of(1)) == 1

    def test_at_half(self):
        assert gamma_at(ArgPoint.of(HALF)) == SQRT_PI_CONST

    def test_at_seven_halves(self):
        # (2*3-1)!!/2^3 = 15/8 by direct double-factorial computation
        assert double_factorial_odd(3) == 15
        assert gamma_at(ArgPoint.of(Fraction(7, 2))) == rational_const(Fraction(15, 8)) * SQRT_PI_CONST

    def test_integers_are_factorials(self):
        import math

        for n in range(1, 9):
            assert gamma_at(ArgPoint.of(n)) == rational_const(math.factorial(n - 1))

    def test_half_integer_family(self, table):
        bindings = table.bindings()
        for n in range(0, 7):
            point = ArgPoint(2 * n + 1)
            expected = rational_const(
                Fraction(double_factorial_odd(n), 2**n)
            ) * SQRT_PI_CONST
            assert gamma_at(point) == expected
            exact = gamma_at(point).evaluate(bindings)
            numeric = gamma_value(float(point.value))
            assert abs(exact - numeric) <= 1e-12 * max(1.0, abs(numeric))


class TestGammaDerivatives:
    def test_first_derivative_at_one(self):
        assert gamma_deriv_at(1, ArgPoint.of(1)) == -GAMMA

    def test_second_derivative_at_one(self):
        assert gamma_deriv_at(2, ArgPoint.of(1)) == zeta_const(2) + GAMMA**2

    def test_third_derivative_at_one(self):
        expected = -(GAMMA**3) - 3 * zeta_const(2) * GAMMA - 2 * zeta_const(3)
        assert gamma_deriv_at(3, ArgPoint.of(1)) == expected

    def test_fourth_derivative_is_weight_four(self):
        assert grade(gamma_deriv_at(4, ArgPoint.of(1))) == Grade("homogeneous", Fraction(4))

    def test_homogeneity_through_ten(self):
        for n in range(11):
            assert grade(gamma_deriv_at(n, ArgPoint.of(1))) == Grade("homogeneous", Fraction(n))

    def test_memoized_results_are_identical(self):
        a = gamma_deriv_at(5, ArgPoint.of(1))
        b = gamma_deriv_at(5, ArgPoint.of(1))
        assert a is b  # write-once cache

    def test_finite_difference_consistency(self, table):
        # recurrence vs pure finite differencing of the Stirling-based Gamma
        bindings = table.bindings()
        for k in range(5):
            for twice in (2, 4, 5, 7):  # x = 1, 2, 5/2, 7/2
                x = ArgPoint(twice)
                exact = gamma_deriv_at(k, x).evaluate(bindings)
                fd = gamma_derivative_fd(k, float(x.value))
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_gamma_prime_is_gamma_times_psi(self):
        for twice in range(1, 13):
            x = ArgPoint(twice)
            assert gamma_deriv_at(1, x) == gamma_at(x) * psi_deriv_at(0, x)
